// google-benchmark microbenchmarks of the simulator itself: event-engine
// throughput, max-min solver scaling, dragonfly routing, topology build.
// These back DESIGN.md's flow-level-simulation ablation (design decision 1).
#include <benchmark/benchmark.h>

#include <numeric>

#include "core/xscale.hpp"

using namespace xscale;

namespace {

void BM_EngineScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) eng.schedule_at(static_cast<double>(i % 97), [] {});
    eng.run();
    benchmark::DoNotOptimize(eng.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_MaxMinSolver(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  sim::Rng rng(1);
  const int links = 4096;
  std::vector<double> cap(links, 25e9);
  std::vector<std::vector<int>> paths(static_cast<std::size_t>(flows));
  for (auto& p : paths)
    for (int h = 0; h < 5; ++h) p.push_back(static_cast<int>(rng.index(links)));
  for (auto& p : paths) {
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
  }
  for (auto _ : state) {
    auto rates = net::max_min_rates(cap, paths);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinSolver)->Arg(1000)->Arg(10000)->Arg(40000);

void BM_FrontierTopologyBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto t = machines::frontier_topology();
    benchmark::DoNotOptimize(t.num_endpoints());
  }
  state.SetItemsProcessed(state.iterations());  // topologies built
}
BENCHMARK(BM_FrontierTopologyBuild);

void BM_FullSystemShiftSolve(benchmark::State& state) {
  const auto m = machines::frontier();
  auto fabric = m.build_fabric();
  net::PairList pairs;
  for (int i = 0; i < m.total_nodes; ++i)
    pairs.emplace_back(machines::node_endpoint(m, i, 0),
                       machines::node_endpoint(m, (i + 5000) % m.total_nodes, 0));
  for (auto _ : state) {
    auto rates = fabric.steady_rates(pairs);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pairs.size()));
}
BENCHMARK(BM_FullSystemShiftSolve)->Unit(benchmark::kMillisecond);

// One SimComm bandwidth sample on the full Frontier fabric: a rank
// permutation at one rank per GCD over `nodes`, on-node pairs dropped,
// solved by steady_rates. This is the call apps::run_app repeats per
// sample. `levels` is the water-filling levels of the sample's solve
// (summed over its components): deterministic, so a change of it between
// two runs is a change of the solve, not noise. It is counted once, outside
// the timed loop.
void run_steady_rates_sample(benchmark::State& state, const machines::Machine& m,
                             const net::Fabric& fabric,
                             const std::vector<int>& nodes) {
  mpi::CommConfig ccfg;
  ccfg.ppn = m.node.gpus;
  const mpi::SimComm comm(m, &fabric, nodes, ccfg);
  sim::Rng rng(ccfg.seed);
  net::PairList pairs;
  for (const auto& [r, peer] : net::random_permutation(comm.size(), rng))
    if (comm.node_of_rank(r) != comm.node_of_rank(peer))
      pairs.emplace_back(comm.endpoint_of_rank(r), comm.endpoint_of_rank(peer));
  std::vector<std::vector<int>> paths;
  fabric.steady_rates(pairs, nullptr, &paths);
  net::SolveStats stats;
  net::max_min_rates_components(fabric.effective_capacities(), paths, nullptr,
                                &stats);
  for (auto _ : state) {
    auto rates = fabric.steady_rates(pairs);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pairs.size()));
  state.counters["levels"] = static_cast<double>(stats.iterations);
}

// A scheduler-placed job: its cost should track the job's size, not the
// fabric's.
void BM_SteadyRatesJob(benchmark::State& state) {
  const auto m = machines::frontier();
  const auto fabric = m.build_fabric();
  sched::Scheduler sched(m.compute_nodes, 128, 7);
  const auto job = sched.allocate(static_cast<int>(state.range(0)));
  run_steady_rates_sample(state, m, fabric, job->nodes);
}
BENCHMARK(BM_SteadyRatesJob)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// Nodes 0..N-1, the allocation run_app gets from the paper benches (Tables
// 6 and 7, §4.4): one component thousands of levels deep.
void BM_SteadyRatesContiguous(benchmark::State& state) {
  const auto m = machines::frontier();
  const auto fabric = m.build_fabric();
  std::vector<int> nodes(static_cast<std::size_t>(state.range(0)));
  std::iota(nodes.begin(), nodes.end(), 0);
  run_steady_rates_sample(state, m, fabric, nodes);
}
BENCHMARK(BM_SteadyRatesContiguous)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(9216)
    ->Unit(benchmark::kMillisecond);

void BM_GemmModel(benchmark::State& state) {
  const auto g = hw::mi250x_gcd();
  int n = 128;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.gemm_achieved(hw::Precision::FP64, n));
    n = n % 16384 + 128;
  }
  state.SetItemsProcessed(state.iterations());  // GEMM estimates
}
BENCHMARK(BM_GemmModel);

void BM_SchedulerAllocateRelease(benchmark::State& state) {
  sched::Scheduler s(9472, 128);
  for (auto _ : state) {
    auto a = s.allocate(512);
    benchmark::DoNotOptimize(a->nodes.data());
    s.release(*a);
  }
  state.SetItemsProcessed(state.iterations());  // allocate/release pairs
}
BENCHMARK(BM_SchedulerAllocateRelease);

}  // namespace

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
