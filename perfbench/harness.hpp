// Scaffolding shared by the benchmark's workloads: the span recorder of the
// traced run, the output digest, and the interface the op loop in main.cpp
// drives. Everything here lives outside the simulator: it only times and
// checks calls into the library's public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace xbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

// In-memory span log of the traced run. A span is one timed call into a
// layer's public function; `parent` is the enclosing open span (-1 at top
// level) and `op` the op it belongs to. Recording is switched on per op by
// the loop in main.cpp; when off, every call below is a no-op.
class Spans {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t op;
    std::int64_t items;  // work items the call handled (per-item times)
  };

  bool on() const { return on_; }
  void set_op(std::int64_t op, bool on) {
    op_ = op;
    on_ = on;
  }

  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, top(), op_, 1});
    stack_.push_back(id);
    return id;
  }
  void close(int id, std::int64_t items) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.items = items;
    stack_.pop_back();
  }
  // A span whose interval the caller measured itself (a child of the
  // currently open span).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    if (on_) spans_.push_back({name, start_ns, end_ns, top(), op_, 1});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int top() const { return stack_.empty() ? -1 : stack_.back(); }

  bool on_ = false;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span: records only while the log is on.
class Scope {
 public:
  Scope(Spans& s, const char* name) : s_(s), id_(s.on() ? s.open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) s_.close(id_, items_);
  }
  void items(std::int64_t n) { items_ = n; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& s_;
  int id_;
  std::int64_t items_ = 1;
};

// FNV-1a over the run's outputs: equal seeds must give equal digests,
// different seeds different ones (the determinism self-check).
class Digest {
 public:
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double x) { add(&x, sizeof x); }
  void add(std::uint64_t x) { add(&x, sizeof x); }
  void add(const std::string& s) { add(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// 17 significant digits: the text parses back to the same double.
inline std::string exact(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// Host-speed probe: fixed code, outside the simulator, timed between ops.
// The benchmark's host shares its cores with other tenants, whose load slows
// this probe and the simulator's ops together in phases of seconds to
// minutes. run.py divides each op's wall time by the probe times around it,
// so the gated metrics follow the simulator's own cost rather than the
// host's phase. The probe is two pointer chases over fixed pseudo-random
// mappings of 4M and 128K entries. From entry 0 the walks settle into cycles
// of 2,798 and 626 entries (about 220 KB of cache lines over ~2,200 pages):
// a load-latency test of the core's L2 and TLBs.
class HostProbe {
 public:
  HostProbe() : big_(1u << 22), small_(1u << 17) {
    std::uint64_t x = 1;
    for (auto& v : big_) v = next(x, big_.size());
    for (auto& v : small_) v = next(x, small_.size());
  }

  // One probe, in milliseconds (about 1 ms on an idle core). An untimed
  // pass over both cycles first brings back what the last op evicted.
  double ms() {
    chase(3000, 700);
    const std::int64_t t0 = now_ns();
    chase(25000, 125000);
    return ms_between(t0, now_ns());
  }

 private:
  static std::uint32_t next(std::uint64_t& x, std::size_t n) {
    x = x * 6364136223846793005ull + 1;
    return static_cast<std::uint32_t>((x >> 33) & (n - 1));
  }
  void chase(int big_steps, int small_steps) {
    for (int i = 0; i < big_steps; ++i) p_ = big_[p_];
    for (int i = 0; i < small_steps; ++i) q_ = small_[q_];
  }

  std::vector<std::uint32_t> big_, small_;
  std::uint32_t p_ = 0, q_ = 0;  // walk positions, kept across probes
};

// Setup phases, in milliseconds of host time.
struct SetupTimes {
  double topo_ms = 0;      // machines::frontier_topology()
  double snapshot_ms = 0;  // net::make_snapshot
  double open_ms = 0;      // sessions / simulators / scheduler
  double warmup_ms = 0;    // untimed warm-up ops
};

// Per-layer counts, taken once at the count mark (a fixed op index, so
// they repeat exactly for a given seed).
using Counts = std::map<std::string, double>;

// The registry's route-cache counters. They are process-wide, so main.cpp
// subtracts what replays and checks add, leaving the timed ops' share.
struct RouteCacheCounts {
  std::uint64_t hit = 0;
  std::uint64_t miss = 0;
  std::uint64_t overlay_reroute = 0;

  static RouteCacheCounts now() {
    auto& m = xscale::obs::metrics();
    return {m.counter("net.route_cache.hit").value(),
            m.counter("net.route_cache.miss").value(),
            m.counter("net.route_cache.overlay_reroute").value()};
  }
  RouteCacheCounts operator-(const RouteCacheCounts& o) const {
    return {hit - o.hit, miss - o.miss, overlay_reroute - o.overlay_reroute};
  }
  RouteCacheCounts operator+(const RouteCacheCounts& o) const {
    return {hit + o.hit, miss + o.miss, overlay_reroute + o.overlay_reroute};
  }
};

inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// One workload: a closed loop with a single client. main.cpp calls, per op,
// prepare (untimed input generation) -> run (timed) -> replay (traced runs
// only, layer calls re-timed on their own) -> check (untimed output check).
class Workload {
 public:
  virtual ~Workload() = default;

  // Build the fabric, open sessions, warm up; the result is stamped into
  // `t`. Baselines for `counts` are taken at the end.
  virtual void setup(SetupTimes& t) = 0;
  virtual void prepare(std::int64_t op) { (void)op; }
  // The timed op; returns its work units.
  virtual double run(std::int64_t op) = 0;
  virtual void replay(std::int64_t op) { (void)op; }
  // Empty string = output correct; otherwise what failed.
  virtual std::string check(std::int64_t op) = 0;
  // Per-layer counts since the end of setup; `timed` holds the route-cache
  // counter deltas of the timed ops alone.
  virtual void counts(const RouteCacheCounts& timed, Counts& out) const = 0;

  Spans spans;
  Digest digest;
};

}  // namespace xbench
