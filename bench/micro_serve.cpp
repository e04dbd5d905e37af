// Serving-path microbenchmark (ISSUE 7): N concurrent `ScenarioSession`s
// over ONE shared 1,024-endpoint `TopologySnapshot`, each sweeping its own
// failure-overlay scenario stream through the batcher.
//
// `items_per_second` is scenario throughput (scenarios fully simulated per
// second, all sessions combined). The per-session scenario stream repeats;
// the reported counters pin the isolation story:
//
//   epochs_max  — largest per-session capacity epoch at the end (diff-applied
//                 repeated scenarios keep this at 1 per failed link)
//   reroutes    — minimal routes that detoured around a failed Global bundle
//
// The check_bench.py gate compares sessions=64 against sessions=1 throughput:
// serving 64 overlay scenarios from one snapshot must stay within 2x of the
// single-session per-scenario cost at XSCALE_THREADS=1 (no cross-session
// invalidation, or this ratio craters).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/options.hpp"
#include "serve/batcher.hpp"
#include "topo/topology.hpp"

using namespace xscale;

namespace {

std::shared_ptr<const net::TopologySnapshot> shared_snapshot() {
  static std::shared_ptr<const net::TopologySnapshot> snap = [] {
    auto t = topo::Topology::uniform_dragonfly(16, {8, 8}, 1, 25e9, 180e-9);
    net::FabricConfig cfg;
    cfg.routing = net::Routing::Minimal;  // deterministic paths across runs
    return net::make_snapshot(std::move(t), cfg);
  }();
  return snap;
}

// Session `i`'s fixed what-if: fail one global bundle (distinct per session)
// and run an 8-wide incast into a session-private target endpoint.
serve::Scenario scenario_for(const topo::Topology& topo, int i) {
  serve::Scenario sc;
  const int ng = topo.num_groups();
  const int ga = i % ng;
  const int gb = (ga + 1 + (i / ng) % (ng - 1)) % ng;
  const int gl = topo.global_link(ga, gb);
  if (gl >= 0) sc.fail_links.push_back(gl);
  const int neps = topo.num_endpoints();
  const int target = (i * 16) % neps;
  for (int k = 1; k <= 8; ++k) {
    serve::FlowSpec f;
    f.src = (target + k) % neps;
    f.dst = target;
    f.bytes = 1e7;
    sc.flows.push_back(f);
  }
  return sc;
}

void BM_ServeBatch(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  constexpr int kScenariosPerSession = 4;

  auto snap = shared_snapshot();
  serve::BatcherConfig cfg;
  cfg.max_sessions = sessions;
  serve::Batcher batcher(snap, cfg);
  std::vector<int> ids;
  for (int i = 0; i < sessions; ++i) ids.push_back(batcher.open_session());

  std::uint64_t scenarios = 0;
  for (auto _ : state) {
    for (int i = 0; i < sessions; ++i)
      for (int k = 0; k < kScenariosPerSession; ++k)
        batcher.submit(ids[static_cast<std::size_t>(i)],
                       scenario_for(snap->topology(), i));
    auto results = batcher.run_batch();
    benchmark::DoNotOptimize(results.data());
    scenarios += static_cast<std::uint64_t>(sessions) * kScenariosPerSession;
  }

  std::uint64_t epochs_max = 0;
  for (int id : ids)
    epochs_max = std::max(epochs_max,
                          batcher.session(id)->fabric().capacity_epoch());
  state.SetItemsProcessed(static_cast<std::int64_t>(scenarios));
  state.counters["epochs_max"] = static_cast<double>(epochs_max);
  state.counters["reroutes"] = static_cast<double>(
      obs::metrics().counter("net.route_cache.overlay_reroute").value());
}

}  // namespace

BENCHMARK(BM_ServeBatch)->Arg(1)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

// Expanded BENCHMARK_MAIN() so the shared obs flags (--trace <file>,
// --metrics) are stripped before google-benchmark parses argv.
int main(int argc, char** argv) {
  xscale::obs::BenchObs obs(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
