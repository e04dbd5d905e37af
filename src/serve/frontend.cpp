#include "serve/frontend.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include "obs/metrics.hpp"

namespace xscale::serve {

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Whether a decimal literal that std::from_chars found out of range
// overflowed (true) or underflowed: the power of ten of its first nonzero
// digit is >= 0. Out of range means below 2.5e-324 or above 1.8e308, so
// the sign of that power decides. Exponents saturate; the mantissa holds a
// nonzero digit (an all-zero mantissa reads as 0, which is in range).
bool literal_overflows(const char* p, const char* end) {
  if (p != end && (*p == '+' || *p == '-')) ++p;
  std::int64_t int_digits = 0, frac_digits = 0;
  std::int64_t lead = 0;  // power of ten of the first nonzero digit
  bool seen = false, dec = false, lead_in_int = false;
  for (; p != end && *p != 'e' && *p != 'E'; ++p) {
    if (*p == '.') {
      dec = true;
      continue;
    }
    if (dec)
      ++frac_digits;
    else
      ++int_digits;
    if (!seen && *p != '0') {
      seen = true;
      lead_in_int = !dec;
      lead = dec ? -frac_digits : int_digits;  // int part: 1-based index
    }
  }
  if (lead_in_int) lead = int_digits - lead;
  std::int64_t exp = 0;
  if (p != end) {
    ++p;
    bool neg = false;
    if (p != end && (*p == '+' || *p == '-')) neg = *p++ == '-';
    for (; p != end && is_digit(*p); ++p)
      exp = std::min<std::int64_t>(exp * 10 + (*p - '0'), 1'000'000'000);
    if (neg) exp = -exp;
  }
  return lead + exp >= 0;
}

}  // namespace

bool LineCursor::skip_space() {
  if (failed_) return false;
  while (p_ != end_ && is_space(*p_)) ++p_;
  if (p_ == end_) failed_ = true;
  return !failed_;
}

bool LineCursor::word(std::string_view& out) {
  if (!skip_space()) return false;
  const char* b = p_;
  while (p_ != end_ && !is_space(*p_)) ++p_;
  out = std::string_view(b, static_cast<std::size_t>(p_ - b));
  return true;
}

bool LineCursor::number(int& out) {
  if (!skip_space()) return false;
  // Sign, then base-10 digits up to the first non-digit (from_chars itself
  // takes no '+', and must not take a '-' after one).
  const char* b = p_;
  if (*b == '+') ++b;
  if (b == end_ || (b != p_ && !is_digit(*b))) {
    failed_ = true;
    out = 0;
    return false;
  }
  int v = 0;
  const auto r = std::from_chars(b, end_, v);
  if (r.ec == std::errc::invalid_argument) {
    failed_ = true;
    out = 0;
    return false;
  }
  p_ = r.ptr;
  if (r.ec == std::errc::result_out_of_range) {
    failed_ = true;
    out = *b == '-' ? std::numeric_limits<int>::min()
                    : std::numeric_limits<int>::max();
    return false;
  }
  out = v;
  return true;
}

bool LineCursor::number(double& out) {
  if (!skip_space()) return false;
  // The text num_get collects: a sign, then digits, one '.' before any
  // exponent, and one 'e'/'E' after a mantissa digit, itself followed by an
  // optional sign. All of it must convert, or the read fails with 0.
  const char* b = p_;
  const char* q = p_;
  if (*q == '+' || *q == '-') ++q;
  bool mantissa = false, dec = false, sci = false;
  while (q != end_) {
    const char c = *q;
    if (is_digit(c)) {
      mantissa = true;
    } else if (c == '.' && !dec && !sci) {
      dec = true;
    } else if ((c == 'e' || c == 'E') && !sci && mantissa) {
      sci = true;
      if (q + 1 != end_ && (q[1] == '+' || q[1] == '-')) ++q;
    } else {
      break;
    }
    ++q;
  }
  p_ = q;
  if (*b == '+') ++b;
  double v = 0.0;
  const auto r = std::from_chars(b, q, v, std::chars_format::general);
  if (r.ptr != q || r.ec == std::errc::invalid_argument) {
    failed_ = true;
    out = 0.0;
    return false;
  }
  if (r.ec == std::errc::result_out_of_range) {
    const double sign = *b == '-' ? -1.0 : 1.0;
    if (literal_overflows(b, q)) {
      failed_ = true;
      out = sign * std::numeric_limits<double>::max();
      return false;
    }
    out = sign * 0.0;
    return true;
  }
  out = v;
  return true;
}

namespace {

// Whether `token` (one word of the line) is a number and nothing else:
// "12abc" and an out-of-range "1e999" are not, though a cursor reading on
// through the line would take 12 from the first and DBL_MAX from the second.
template <typename T>
bool whole_number(std::string_view token, T& out) {
  LineCursor cur(token);
  std::string_view rest;
  return cur.number(out) && !cur.word(rest);
}

// The next word of the line, read as a whole number: "0abc" is an error,
// not 0 followed by a word nobody reads.
template <typename T>
bool next_number(LineCursor& line, T& out) {
  std::string_view w;
  return line.word(w) && whole_number(w, out);
}

}  // namespace

void Frontend::serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (!handle_line(line, out)) break;
  }
}

bool Frontend::handle_line(const std::string& line, std::ostream& out) {
  LineCursor ss(line);
  std::string_view cmd;
  if (!ss.word(cmd)) return true;  // blank line: no response

  if (cmd == "QUIT") {
    out << "OK\n";
    return false;
  }
  if (cmd == "OPEN") {
    const int id = batcher_.open_session();
    if (id < 0)
      out << "ERR at-capacity\n";
    else
      out << "OK " << id << "\n";
    return true;
  }
  if (cmd == "CLOSE") {
    int id;
    if (!next_number(ss, id)) {
      out << "ERR usage: CLOSE <id>\n";
      return true;
    }
    staged_.erase(id);
    out << (batcher_.close_session(id) ? "OK\n" : "ERR no-such-session\n");
    return true;
  }
  if (cmd == "FAIL") {
    int id;
    if (!next_number(ss, id) || batcher_.session(id) == nullptr) {
      out << "ERR usage: FAIL <id> <link>...\n";
      return true;
    }
    // Every link first, then stage: a rejected line stages nothing.
    std::vector<int> links;
    std::string_view tok;
    int link;
    while (ss.word(tok)) {
      if (!whole_number(tok, link)) {
        links.clear();
        break;
      }
      links.push_back(link);
    }
    if (links.empty()) {
      out << "ERR usage: FAIL <id> <link>...\n";
      return true;
    }
    auto& staged = staged_[id].fail_links;
    staged.insert(staged.end(), links.begin(), links.end());
    out << "OK\n";
    return true;
  }
  if (cmd == "DELTA") {
    int id, link;
    double cap;
    if (!next_number(ss, id) || batcher_.session(id) == nullptr ||
        !next_number(ss, link) || !next_number(ss, cap)) {
      out << "ERR usage: DELTA <id> <link> <cap_Bps>\n";
      return true;
    }
    staged_[id].capacity_overrides.emplace_back(link, cap);
    out << "OK\n";
    return true;
  }
  if (cmd == "FLOW") {
    int id;
    FlowSpec f;
    if (!next_number(ss, id) || batcher_.session(id) == nullptr ||
        !next_number(ss, f.src) || !next_number(ss, f.dst) ||
        !next_number(ss, f.bytes)) {
      out << "ERR usage: FLOW <id> <src> <dst> <bytes> [<start_s>]\n";
      return true;
    }
    std::string_view start;  // optional, defaults to 0
    if (ss.word(start) && !whole_number(start, f.start_s)) {
      out << "ERR usage: FLOW <id> <src> <dst> <bytes> [<start_s>]\n";
      return true;
    }
    staged_[id].flows.push_back(f);
    out << "OK\n";
    return true;
  }
  if (cmd == "SUBMIT") {
    int id;
    if (!next_number(ss, id)) {
      out << "ERR usage: SUBMIT <id>\n";
      return true;
    }
    const auto it = staged_.find(id);
    if (it == staged_.end()) {
      out << "ERR nothing-staged\n";
      return true;
    }
    // A rejected submit does not consume the scenario: the staged state
    // survives backpressure, so the client can retry after RUN drains the
    // queue instead of silently losing its FAIL/DELTA/FLOW lines.
    if (!batcher_.submit(id, std::move(it->second))) {
      out << "ERR backpressure-or-no-session\n";
      return true;
    }
    staged_.erase(it);
    out << "OK " << batcher_.pending() << "\n";
    return true;
  }
  if (cmd == "RUN") {
    const auto results = batcher_.run_batch();
    std::size_t count = 0;
    for (std::size_t sid = 0; sid < results.size(); ++sid) {
      for (std::size_t i = 0; i < results[sid].size(); ++i) {
        const ScenarioResult& r = results[sid][i];
        out << "RESULT " << sid << " " << i << " " << r.makespan_s << " "
            << r.dropped << "\n";
        ++count;
      }
    }
    out << "OK " << count << "\n";
    return true;
  }
  if (cmd == "METRICS") {
    for (const auto& e : obs::metrics().snapshot()) {
      if (e.name.rfind("serve.", 0) != 0) continue;
      out << "METRIC " << e.name << " " << e.value << "\n";
    }
    out << "OK\n";
    return true;
  }
  out << "ERR unknown-command " << cmd << "\n";
  return true;
}

}  // namespace xscale::serve
