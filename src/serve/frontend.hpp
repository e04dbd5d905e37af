// Thin text front-end over the batcher: one command per line, answers on the
// paired output stream. Works the same over stdin/stdout (examples/serve_cli)
// or any socket-backed iostream a caller wires up — the protocol is the
// interface, the transport is not.
//
//   OPEN                          -> OK <id>            | ERR at-capacity
//   CLOSE <id>                    -> OK                 | ERR no-such-session
//   FAIL <id> <link> [<link>...]  -> OK        (stage failures, next scenario)
//   DELTA <id> <link> <cap_Bps>   -> OK        (stage a capacity override)
//   FLOW <id> <src> <dst> <bytes> [<start_s>] -> OK      (stage a flow)
//   SUBMIT <id>                   -> OK <n-pending>     | ERR backpressure
//                                                       | ERR nothing-staged
//   RUN                           -> RESULT <id> <idx> <makespan_s> <dropped>
//                                    (one line per scenario) then OK <count>
//   METRICS                       -> METRIC <name> <value> ... then OK
//   QUIT                          -> OK (serve() returns; EOF does the same)
//
// Staged scenario state lives per session in the frontend; SUBMIT moves it
// into the batcher's queue (admission/backpressure decisions and counters
// happen there). A rejected SUBMIT keeps the staged scenario intact for
// retry; SUBMIT with nothing staged is an error, never an empty scenario.
// Unknown commands and malformed arguments answer ERR and leave every
// session, and everything staged, untouched. Every number of a line (a
// session id, link, endpoint, byte count, capacity or start time) must be a
// whole word that reads in range: "SUBMIT 0abc", "DELTA 0 5.9 7",
// "FAIL 0 12abc" and "FLOW 0 1 2 3 1e999" are errors.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "serve/batcher.hpp"

namespace xscale::serve {

// Reads the words and numbers of one protocol line exactly as
// `std::istringstream >>` reads them in the classic locale, without the
// stream: the same text is accepted and rejected, the same values are
// stored, also on failure, and a failure is sticky. A number stops at the
// first character its syntax cannot take ("12abc" reads 12, and the next
// read fails on "abc"); a leading '+' is accepted; "inf", "nan" and hex are
// not numbers. An int out of range fails and stores INT_MAX or INT_MIN, a
// double out of range fails and stores +-DBL_MAX, a double that underflows
// reads as (signed) zero or the subnormal it rounds to; a read with no text
// left fails and stores nothing. tests/test_serve.cpp pins this against an
// istringstream on mutated lines.
class LineCursor {
 public:
  explicit LineCursor(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  bool word(std::string_view& out);
  bool number(int& out);
  bool number(double& out);

 private:
  bool skip_space();  // false (and failed) when no text is left

  const char* p_;
  const char* end_;
  bool failed_ = false;
};

class Frontend {
 public:
  explicit Frontend(Batcher& batcher) : batcher_(batcher) {}

  // Read commands from `in` until QUIT or EOF. Every line gets exactly one
  // OK/ERR/RESULT... response block on `out`.
  void serve(std::istream& in, std::ostream& out);

  // Process one command line; returns false when the line was QUIT.
  bool handle_line(const std::string& line, std::ostream& out);

  // Scenarios staged so far, per open session id.
  const std::map<int, Scenario>& staged() const { return staged_; }

 private:
  Batcher& batcher_;
  std::map<int, Scenario> staged_;  // per open session id
};

}  // namespace xscale::serve
