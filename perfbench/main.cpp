// xscale_perfbench: runs one workload as a closed loop of timed ops and
// writes a JSON report (per-op times and work, failures, per-layer counts,
// configuration) plus, for a traced run, the span log. run.py turns the
// report into the benchmark's metrics; run it rather than this binary.
//
//   xscale_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --report FILE [--spans FILE] [--t0-ns NS]
//                    [--min-ops N] [--count-ops N] [--setups N]
//
// The workload is set up --setups times in a row, each set-up from scratch
// after the previous one is freed; the ops run on the last. The loop runs
// until at least --min-ops ops are done and --seconds have passed, or for
// kMaxLoopSeconds, whichever comes first. A traced run
// records spans in alternate blocks of ops, so traced and untraced ops
// interleave and their medians give the tracing overhead. Per-layer counts
// and the output digest are taken after op --count-ops, a fixed point of
// the seeded sequence. A host-speed probe runs before and after each
// set-up and after each op, outside the timed region.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/simd.hpp"
#include "sim/parallel.hpp"
#include "workloads.hpp"

#ifndef XBENCH_BUILD_TYPE
#define XBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace xbench;

// Hard stop for the op loop, so a slow host still ends a run in time.
constexpr double kMaxLoopSeconds = 120;
// A traced run alternates blocks of this many traced and untraced ops, so
// each side holds whole rounds of apps_jobmix's eight size strata.
constexpr std::int64_t kTraceBlock = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string report;
  std::string spans;
  std::int64_t t0_ns = -1;  // CLOCK_REALTIME at process launch
  std::int64_t min_ops = 100;
  std::int64_t count_ops = 40;
  int setups = 3;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "xscale_perfbench: " << why << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--report") a.report = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--t0-ns") a.t0_ns = std::stoll(v);
    else if (k == "--min-ops") a.min_ops = std::stoll(v);
    else if (k == "--count-ops") a.count_ops = std::stoll(v);
    else if (k == "--setups") a.setups = std::stoi(v);
    else usage("unknown flag " + k);
  }
  if (a.report.empty()) usage("--report is required");
  if (a.setups < 1) usage("--setups must be at least 1");
  return a;
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

struct OpRecord {
  double ms;
  double work;
  bool traced;
  double probe_ms;  // host-speed probe right after the op
};

// Probes taken around a set-up.
constexpr int kSetupProbes = 5;

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "serve_whatif") return make_serve_whatif(a.seed);
  if (a.workload == "checkpoint_io") return make_checkpoint_io(a.seed);
  if (a.workload == "apps_jobmix") return make_apps_jobmix(a.seed);
  usage("unknown workload '" + a.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_wall = wall_ns();
  const Args a = parse(argc, argv);
  // Process launch to main(): part of every set-up's time.
  const double launch_s =
      a.t0_ns >= 0 ? static_cast<double>(main_wall - a.t0_ns) * 1e-9 : 0.0;
  HostProbe probe;
  std::unique_ptr<Workload> w;
  SetupTimes st;
  // Per set-up: seconds, and the median probe around it.
  std::vector<std::pair<double, double>> setups;
  for (int k = 0; k < a.setups; ++k) {
    w.reset();
    std::vector<double> probes;
    for (int j = 0; j < kSetupProbes; ++j) probes.push_back(probe.ms());
    const std::int64_t t0 = now_ns();
    try {
      w = make_workload(a);
      w->setup(st);
    } catch (const std::exception& e) {
      std::cerr << "xscale_perfbench: " << a.workload << " setup: "
                << e.what() << "\n";
      return 1;
    }
    const double s = launch_s + static_cast<double>(now_ns() - t0) * 1e-9;
    for (int j = 0; j < kSetupProbes; ++j) probes.push_back(probe.ms());
    std::nth_element(probes.begin(), probes.begin() + kSetupProbes,
                     probes.end());
    setups.emplace_back(s, probes[kSetupProbes]);
  }

  std::vector<OpRecord> ops;
  std::vector<std::pair<std::int64_t, std::string>> failures;
  Counts counts;
  std::uint64_t digest = 0;
  bool marked = false;
  const RouteCacheCounts base = RouteCacheCounts::now();
  RouteCacheCounts outside;  // added by replays and checks
  const std::int64_t start = now_ns();
  for (std::int64_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if ((i >= a.min_ops && i >= (a.trace ? a.count_ops : 0) &&
         elapsed >= a.seconds) ||
        elapsed >= kMaxLoopSeconds)
      break;
    const bool traced = a.trace && (i / kTraceBlock) % 2 == 0;
    std::string err;
    std::int64_t t0 = -1;
    w->spans.set_op(i, traced);
    try {
      w->prepare(i);
      double work = 0;
      t0 = now_ns();
      {
        Scope op(w->spans, "op");
        work = w->run(i);
      }
      ops.push_back({ms_between(t0, now_ns()), work, traced, probe.ms()});
      const RouteCacheCounts before = RouteCacheCounts::now();
      if (traced) w->replay(i);
      w->spans.set_op(i, false);
      err = w->check(i);
      outside = outside + (RouteCacheCounts::now() - before);
    } catch (const std::exception& e) {
      w->spans.set_op(i, false);
      // Threw before the op was recorded.
      if (static_cast<std::int64_t>(ops.size()) == i)
        ops.push_back({t0 >= 0 ? ms_between(t0, now_ns()) : 0.0, 0, traced,
                       probe.ms()});
      err = std::string("threw: ") + e.what();
    }
    if (!err.empty()) failures.emplace_back(i, err);
    if (i + 1 == a.count_ops) {
      w->counts(RouteCacheCounts::now() - base - outside, counts);
      digest = w->digest.value();
      marked = true;
    }
  }
  std::ofstream r(a.report);
  r << "{\"workload\": " << json_str(a.workload) << ", \"seed\": " << a.seed
    << ", \"trace\": " << (a.trace ? 1 : 0) << ",\n \"config\": {"
    << "\"build_type\": " << json_str(XBENCH_BUILD_TYPE)
    << ", \"scan_kernel\": " << json_str(xscale::net::min_share_scan_name())
    << ", \"threads\": " << xscale::sim::thread_count()
    << ", \"host_cpus\": " << std::thread::hardware_concurrency() << "},\n"
    << " \"setup\": {\"launch_s\": " << exact(launch_s)
    << ", \"topo_ms\": " << exact(st.topo_ms)
    << ", \"snapshot_ms\": " << exact(st.snapshot_ms)
    << ", \"open_ms\": " << exact(st.open_ms)
    << ", \"warmup_ms\": " << exact(st.warmup_ms) << "},\n \"setups\": [";
  const char* sep = "";
  for (const auto& [s, p] : setups) {
    r << sep << "[" << exact(s) << ", " << exact(p) << "]";
    sep = ", ";
  }
  r << "],\n"
    << " \"count_ops\": " << (marked ? a.count_ops : -1) << ", \"digest\": \""
    << std::hex << digest << std::dec << "\",\n \"counts\": {";
  sep = "";
  for (const auto& [k, v] : counts) {
    r << sep << json_str(k) << ": " << exact(v);
    sep = ", ";
  }
  r << "},\n \"failures\": [";
  sep = "";
  for (const auto& [op, what] : failures) {
    r << sep << "[" << op << ", " << json_str(what) << "]";
    sep = ", ";
  }
  r << "],\n \"ops\": [";
  sep = "";
  for (const OpRecord& o : ops) {
    r << sep << "[" << exact(o.ms) << ", " << exact(o.work) << ", "
      << (o.traced ? 1 : 0) << ", " << exact(o.probe_ms) << "]";
    sep = ", ";
  }
  r << "]}\n";
  r.close();
  if (!r) {
    std::cerr << "xscale_perfbench: cannot write " << a.report << "\n";
    return 1;
  }

  if (a.trace && !a.spans.empty()) {
    // One span per line: [name, op, parent, start_ns, end_ns, items].
    std::ofstream s(a.spans);
    for (const auto& sp : w->spans.spans())
      s << "[" << json_str(sp.name) << ", " << sp.op << ", " << sp.parent
        << ", " << sp.start_ns << ", " << sp.end_ns << ", " << sp.items
        << "]\n";
    if (!s) {
      std::cerr << "xscale_perfbench: cannot write " << a.spans << "\n";
      return 1;
    }
  }
  return 0;
}
