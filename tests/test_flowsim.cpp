// Tests for the incremental FlowSim rate solver: differential equivalence
// against the full max-min oracle on randomized churn, stall/drop handling of
// zero-rate flows over failed links, and event-heap boundedness under the
// cancel-heavy reschedule pattern.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/flowsim.hpp"
#include "net/rotor.hpp"
#include "net/simd.hpp"
#include "net/solver.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"

namespace {

using namespace xscale;

net::Fabric make_fabric(topo::Topology t, net::Routing r, bool cc) {
  net::FabricConfig cfg;
  cfg.routing = r;
  cfg.congestion_control = cc;
  cfg.nic_efficiency = 0.70;
  return net::Fabric(std::move(t), cfg);
}

net::Fabric small_dragonfly(net::Routing r, bool cc = true) {
  // 8 groups x 4 switches x 4 endpoints, 1 link per group pair.
  return make_fabric(topo::Topology::uniform_dragonfly(8, {4, 4}, 1, 25e9, 180e-9),
                     r, cc);
}

// The three topology families the differential suites sweep (ISSUE 9): the
// classic dragonfly, an oversubscribed fat-tree (contention at the leaf
// uplinks) and a time-sliced rotor whose inter-switch capacity rotates every
// slot. All sized to 128 endpoints so the same churn driver applies.
struct FabricFamily {
  const char* name;
  net::Fabric (*make)(net::Routing);
  // Rotor fabrics get a RotorSchedule attached so every run crosses live
  // slot boundaries (wholesale capacity churn mid-differential).
  bool rotor;
};

net::Fabric family_dragonfly(net::Routing r) { return small_dragonfly(r); }
net::Fabric family_os_fat_tree(net::Routing r) {
  // 16 leaves x 8 endpoints, 4:1 oversubscribed uplinks.
  return make_fabric(
      topo::Topology::oversubscribed_fat_tree(16, 8, 4.0, 25e9, 180e-9), r,
      true);
}
net::Fabric family_rotor(net::Routing r) {
  // 8 switches x 16 endpoints, all 7 matchings (full any-to-any coverage),
  // 250 us slots at 90% duty — hundreds of slot boundaries per churn run.
  return make_fabric(
      topo::Topology::rotor(8, 16, 7, 250e-6, 0.9, 25e9, 180e-9), r, true);
}

constexpr FabricFamily kFamilies[] = {
    {"dragonfly", family_dragonfly, false},
    {"os_fat_tree", family_os_fat_tree, false},
    {"rotor", family_rotor, true},
};

// Rebuild the full problem from the simulator's state and check every active
// flow's rate against the retained reference oracle, bit for bit. The CSR
// adapter (`max_min_rates`) is checked against the reference on the same
// input, so one call pins live rates == CSR core == original implementation.
int check_against_oracle(const net::FlowSim& fs, const net::Fabric& fabric) {
  std::vector<std::vector<int>> paths;
  std::vector<double> live_rates;
  fs.for_each_flow([&](std::uint64_t, const std::vector<int>& path, double,
                       double rate) {
    paths.push_back(path);
    live_rates.push_back(rate);
  });
  const auto oracle =
      net::max_min_rates_reference(fabric.effective_capacities(), paths);
  const auto csr = net::max_min_rates(fabric.effective_capacities(), paths);
  EXPECT_EQ(oracle.size(), live_rates.size());
  EXPECT_EQ(csr.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(live_rates[i], oracle[i]) << "flow index " << i;
    EXPECT_EQ(csr[i], oracle[i]) << "csr adapter, flow index " << i;
  }
  return static_cast<int>(oracle.size());
}

// Randomized churn over every topology family: a window of concurrent flows
// with staggered starts and completions; after every state change (start or
// completion) the incremental rates must equal the oracle's exactly. On the
// rotor family the run additionally crosses live slot boundaries, so the
// oracle (rebuilt from `effective_capacities()`) pins mid-slot rates too.
TEST(FlowSimIncremental, DifferentialOracleOnRandomChurn) {
  for (const FabricFamily& fam : kFamilies) {
    for (std::uint64_t seed : {11ull, 23ull, 47ull}) {
      SCOPED_TRACE(fam.name);
      sim::Engine eng;
      auto fabric = fam.make(net::Routing::Adaptive);
      net::FlowSim fs(eng, fabric);
      std::optional<net::RotorSchedule> rotor;
      if (fam.rotor) {
        rotor.emplace(eng, fabric, &fs);
        rotor->start();
      }
      sim::Rng rng(seed);
      const int eps = fabric.topology().num_endpoints();
      int launched = 0, completed = 0, checks = 0;
      const int total = 400;

      std::function<void()> launch = [&] {
        if (launched >= total) return;
        ++launched;
        const int src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        int dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        if (dst == src) dst = (dst + 1) % eps;
        fs.start(src, dst, rng.uniform(1e6, 5e8), [&] {
          ++completed;
          checks += check_against_oracle(fs, fabric);
          // Replacement keeps a ~16-flow window alive until the budget drains.
          launch();
        });
        checks += check_against_oracle(fs, fabric);
      };
      for (int i = 0; i < 16; ++i) launch();
      eng.run();

      EXPECT_EQ(completed, total);
      EXPECT_EQ(fs.active_flows(), 0u);
      EXPECT_GT(checks, 2000);  // the differential actually exercised rates
      // The point of the machinery: restricted solves happened and dominated.
      EXPECT_GT(fs.stats().component_solves, fs.stats().fallback_solves);
      if (fam.rotor) {
        EXPECT_GT(rotor->transitions(), 100u);
      }
    }
  }
}

// SIMD-vs-scalar bitwise differential (ISSUE 10): the same churn workload —
// every topology family, threads in {1, 2, 8} — must produce a bitwise
// identical trajectory (every completion instant and every live rate after
// every completion) whichever min-share scan kernel is dispatched. On
// builds/hosts without a vector kernel both runs resolve to the scalar
// kernel and the differential degenerates to a determinism check.
TEST(FlowSimIncremental, SimdAndScalarKernelTrajectoriesIdentical) {
  std::printf("min_share_scan dispatch: %s\n", net::min_share_scan_name());
  const int prev_threads = sim::thread_count();
  for (const FabricFamily& fam : kFamilies) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(fam.name) + ", threads " +
                   std::to_string(threads));
      sim::set_thread_count(threads);
      auto run = [&](net::ScanKernel k) {
        net::set_scan_kernel(k);
        std::vector<double> trace;
        sim::Engine eng;
        auto fabric = fam.make(net::Routing::Adaptive);
        net::FlowSim fs(eng, fabric);
        std::optional<net::RotorSchedule> rotor;
        if (fam.rotor) {
          rotor.emplace(eng, fabric, &fs);
          rotor->start();
        }
        sim::Rng rng(0x51D5u);
        const int eps = fabric.topology().num_endpoints();
        int launched = 0;
        const int total = 200;
        std::function<void()> launch = [&] {
          if (launched >= total) return;
          ++launched;
          const int src =
              static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
          int dst =
              static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
          if (dst == src) dst = (dst + 1) % eps;
          fs.start(src, dst, rng.uniform(1e6, 5e8), [&] {
            trace.push_back(eng.now());
            fs.for_each_flow(
                [&](std::uint64_t, const std::vector<int>&, double,
                    double rate) { trace.push_back(rate); });
            launch();
          });
        };
        for (int i = 0; i < 16; ++i) launch();
        eng.run();
        net::set_scan_kernel(net::ScanKernel::Auto);
        return trace;
      };
      const auto dispatched = run(net::ScanKernel::Auto);
      const auto scalar = run(net::ScanKernel::ForceScalar);
      ASSERT_EQ(dispatched.size(), scalar.size());
      ASSERT_GT(dispatched.size(), 1000u);  // the trajectory has real content
      for (std::size_t i = 0; i < dispatched.size(); ++i)
        EXPECT_EQ(dispatched[i], scalar[i]) << "trace index " << i;
    }
  }
  sim::set_thread_count(prev_threads);
}

// Same-destination ties: many equal flows complete at the same instant, so
// several removals collapse into one resolve whose dirty set spans multiple
// merged components.
TEST(FlowSimIncremental, DifferentialOracleOnTiedIncast) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  int done = 0;
  for (int s = 4; s < 12; ++s)
    fs.start(s, 2, 8.75e9, [&] {
      ++done;
      check_against_oracle(fs, fabric);
    });
  for (int s = 16; s < 20; ++s)  // independent group, own component
    fs.start(s, 20, 17.5e9, [&] {
      ++done;
      check_against_oracle(fs, fabric);
    });
  check_against_oracle(fs, fabric);
  eng.run();
  EXPECT_EQ(done, 12);
}

TEST(FlowSimIncremental, FullAndIncrementalCompletionTimesAgree) {
  auto run = [](bool incremental) {
    sim::Engine eng;
    auto fabric = small_dragonfly(net::Routing::Adaptive);
    net::FlowSim fs(eng, fabric, {.incremental = incremental});
    sim::Rng rng(7);
    std::vector<double> done_times;
    for (int i = 0; i < 96; ++i) {
      const int src = static_cast<int>(rng.index(128));
      int dst = static_cast<int>(rng.index(128));
      if (dst == src) dst = (dst + 1) % 128;
      fs.start(src, dst, rng.uniform(1e6, 1e9),
               [&done_times, &eng] { done_times.push_back(eng.now()); });
    }
    eng.run();
    return done_times;
  };
  const auto inc = run(true);
  const auto full = run(false);
  ASSERT_EQ(inc.size(), full.size());
  for (std::size_t i = 0; i < inc.size(); ++i) EXPECT_EQ(inc[i], full[i]);
}

// ------------------------------------------------------ input validation ---

TEST(FlowSim, StartRejectsOutOfRangeEndpointsWithoutSideEffects) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Adaptive);
  const int eps = fabric.topology().num_endpoints();
  net::FlowSim fs(eng, fabric);
  const std::uint64_t first = fs.start(0, eps - 1, 1e9, [] {});
  const auto stats = fs.stats();
  const auto pending = eng.pending_events();
  for (const auto& [src, dst] : std::vector<std::pair<int, int>>{
           {-1, 1}, {0, -1}, {eps, 1}, {0, eps}, {eps + 7, eps}}) {
    EXPECT_THROW(fs.start(src, dst, 1e9, [] {}), std::out_of_range)
        << src << " -> " << dst;
  }
  EXPECT_EQ(fs.active_flows(), 1u);
  EXPECT_TRUE(fs.stats() == stats);
  EXPECT_EQ(eng.pending_events(), pending);
  // The next valid start takes the next id, and both flows complete.
  EXPECT_EQ(fs.start(1, eps - 2, 1e9, [] {}), first + 1);
  EXPECT_EQ(fs.active_flows(), 2u);
  eng.run();
  EXPECT_EQ(fs.active_flows(), 0u);
}

// ------------------------------------------------------------ rate floor ---

TEST(FlowSim, FlowOverDownedLinkStallsVisiblyInsteadOfTrickling) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  fabric.fail_link(fabric.topology().ejection_link(3));
  net::FlowSim fs(eng, fabric);
  bool done = false;
  fs.start(0, 3, 1e9, [&] { done = true; });
  eng.run();  // returns immediately: a stalled flow schedules nothing
  EXPECT_FALSE(done);  // the old 1 B/s floor "completed" this after ~31 sim-years
  EXPECT_EQ(fs.active_flows(), 1u);
  EXPECT_EQ(fs.stalled_flows(), 1u);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(FlowSim, StalledFlowRecoversWhenLinkRestored) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  const int ej3 = fabric.topology().ejection_link(3);
  fabric.fail_link(ej3);
  net::FlowSim fs(eng, fabric);
  double t_victim = -1;
  fs.start(0, 3, 17.5e9, [&] { t_victim = eng.now(); });
  eng.run();
  ASSERT_EQ(fs.stalled_flows(), 1u);

  fabric.restore_link(ej3);
  // Capacity changes are picked up at the next resolve that dirties the
  // component; a new flow over the same destination does exactly that.
  double t_probe = -1;
  fs.start(1, 3, 17.5e9, [&] { t_probe = eng.now(); });
  EXPECT_EQ(fs.stalled_flows(), 0u);
  eng.run();
  EXPECT_NEAR(t_victim, 2.0, 1e-6);  // both shared the restored ejection link
  EXPECT_NEAR(t_probe, 2.0, 1e-6);
  EXPECT_EQ(fs.active_flows(), 0u);
}

TEST(FlowSim, DropPolicyFailsFastWithHook) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  fabric.fail_link(fabric.topology().ejection_link(3));
  net::FlowSim fs(eng, fabric, {.stall_policy = net::StallPolicy::Drop});
  std::vector<std::uint64_t> stalled_ids;
  fs.on_stall([&](std::uint64_t id) { stalled_ids.push_back(id); });
  bool done = false, other_done = false;
  const auto id = fs.start(0, 3, 1e9, [&] { done = true; });
  fs.start(4, 5, 17.5e9, [&] { other_done = true; });  // healthy flow
  eng.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(other_done);
  EXPECT_EQ(fs.active_flows(), 0u);
  EXPECT_EQ(fs.stalled_flows(), 0u);
  EXPECT_EQ(fs.dropped_flows(), 1u);
  ASSERT_EQ(stalled_ids.size(), 1u);
  EXPECT_EQ(stalled_ids[0], id);
}

// ------------------------------------------------------------- heap churn ---

// Acceptance criterion: across a million-operation FlowSim churn, the engine
// heap stays bounded — cancelled (stale) entries never exceed live ones.
TEST(FlowSim, EngineHeapBoundedAcrossMillionOpChurn) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Adaptive);
  net::FlowSim fs(eng, fabric);
  sim::Rng rng(99);
  const int eps = fabric.topology().num_endpoints();
  std::uint64_t completions = 0;

  std::function<void()> launch = [&] {
    const int src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    int dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    if (dst == src) dst = (dst + 1) % eps;
    fs.start(src, dst, rng.uniform(1e5, 1e7), [&] {
      ++completions;
      if (completions % 1024 == 0) {
        ASSERT_LE(eng.cancelled_events(), eng.pending_events());
        ASSERT_LE(eng.heap_size(),
                  2 * eng.pending_events());  // heap = live + stale
      }
      // Keep churning until scheduled + executed events pass the million-op
      // mark (each completion costs ~2 schedules, 1 cancel, 1 execution).
      if (eng.events_scheduled() < 700000) launch();
    });
  };
  for (int i = 0; i < 12; ++i) launch();
  eng.run();

  const std::uint64_t ops = eng.events_scheduled() + eng.events_executed();
  EXPECT_GT(ops, 1000000u);
  EXPECT_LE(eng.cancelled_events(), eng.pending_events());
  EXPECT_GT(eng.compactions(), 0u);
  EXPECT_EQ(fs.active_flows(), 0u);
  // The incremental machinery was engaged, not bypassed, during the churn.
  EXPECT_GT(fs.stats().component_solves, 0u);
}

// ------------------------------------------------------------ warm start ---

// Restores the configured thread count after a test that sweeps it.
struct ThreadCountGuard {
  ~ThreadCountGuard() { sim::set_thread_count(1); }
};

enum class Shape { Incast, AllToAll, Permutation };

// Deterministic churn of `total` flows in the given traffic shape with a
// ~24-flow replacement window; returns the completion-time sequence. The
// same seed drives every configuration, so any divergence between warm and
// cold (or across thread counts) shows up as a completion-time mismatch.
// On the rotor family every run carries a live RotorSchedule: warm and cold
// cross identical slot boundaries, so the bitwise contract covers wholesale
// slot-capacity churn as well.
std::vector<double> run_shape(const FabricFamily& fam, Shape shape,
                              bool warm_start, int threads, int* oracle_checks,
                              bool incremental_writeback = true,
                              net::FlowSim::Stats* out_stats = nullptr) {
  sim::set_thread_count(threads);
  sim::Engine eng;
  auto fabric = fam.make(net::Routing::Minimal);
  // A low fallback fraction pushes even moderate merged components through
  // the warm (or, with warm_start off, the cold fallback) whole-set path.
  net::FlowSim fs(eng, fabric,
                  {.fallback_fraction = 0.25, .warm_start = warm_start,
                   .incremental_writeback = incremental_writeback});
  std::optional<net::RotorSchedule> rotor;
  if (fam.rotor) {
    rotor.emplace(eng, fabric, &fs);
    rotor->start();
  }
  sim::Rng rng(4242);
  const int eps = fabric.topology().num_endpoints();
  const int total = 160;
  int launched = 0, completed = 0;
  std::vector<double> times;
  std::function<void()> launch = [&] {
    if (launched >= total) return;
    const int i = launched++;
    int src = 0, dst = 0;
    switch (shape) {
      case Shape::Incast:
        src = 1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(eps - 1)));
        dst = 0;
        break;
      case Shape::AllToAll:
        src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        if (dst == src) dst = (dst + 1) % eps;
        break;
      case Shape::Permutation:
        src = i % eps;
        dst = (src + 37) % eps;
        break;
    }
    fs.start(src, dst, rng.uniform(1e6, 2e8), [&] {
      ++completed;
      times.push_back(eng.now());
      if (oracle_checks && completed % 16 == 0)
        *oracle_checks += check_against_oracle(fs, fabric);
      launch();
    });
  };
  for (int i = 0; i < 24; ++i) launch();
  eng.run();
  EXPECT_EQ(completed, total) << fam.name;
  if (out_stats) *out_stats = fs.stats();
  if (warm_start && shape == Shape::Incast) {
    // The cliff pattern must actually ride the new path, not fall back.
    EXPECT_GT(fs.stats().warm_solves, 0u) << fam.name;
    EXPECT_EQ(fs.stats().fallback_solves, 0u) << fam.name;
    // On the static families it mostly rides the single-bottleneck closed
    // form (one ejection link is the unique minimum and every flow crosses
    // it). The rotor run usually holds stalled flows (dark matchings), which
    // the closed form correctly declines, so the claim is family-gated.
    if (!fam.rotor) {
      EXPECT_GT(fs.stats().warm_single_hits, 0u) << fam.name;
    }
  }
  return times;
}

// The tentpole contract: the warm-start whole-set solve is bit-identical to
// the cold full solve (and both to the reference oracle) under incast,
// all-to-all and permutation churn, at every thread count — on every
// topology family (dragonfly, oversubscribed fat-tree, live-slotted rotor).
TEST(FlowSimWarmStart, MatchesColdAndOracleAcrossShapesAndThreads) {
  ThreadCountGuard guard;
  for (const FabricFamily& fam : kFamilies) {
    SCOPED_TRACE(fam.name);
    for (Shape shape : {Shape::Incast, Shape::AllToAll, Shape::Permutation}) {
      sim::set_thread_count(1);
      const auto baseline =
          run_shape(fam, shape, /*warm_start=*/false, 1, nullptr);
      for (int threads : {1, 2, 8}) {
        int checks = 0;
        const auto times =
            run_shape(fam, shape, /*warm_start=*/true, threads, &checks);
        ASSERT_EQ(times.size(), baseline.size());
        for (std::size_t i = 0; i < times.size(); ++i)
          EXPECT_EQ(times[i], baseline[i])
              << "shape=" << static_cast<int>(shape) << " threads=" << threads
              << " completion " << i;
        EXPECT_GT(checks, 0);
      }
    }
  }
}

// Property: repeated no-op churn — add a flow, let it complete, add an
// identically-routed one — settles into pure memo replay: the warm solve
// recognises the recurring path streams, the frontier stops growing, and
// rates stay oracle-exact.
TEST(FlowSimWarmStart, NoOpChurnReplaysFromMemoWithEmptyFrontier) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  // Two incast groups with different fan-in (13 flows into endpoint 0,
  // 11 into endpoint 1) make a genuinely multi-level solution, so the
  // single-bottleneck closed form declines and the memo is what serves the
  // recurring streams.
  for (int s = 4; s < 17; ++s) fs.start(s, 0, 1e12, [] {});
  for (int s = 17; s < 28; ++s) fs.start(s, 1, 1e12, [] {});
  const int cycles = 6;
  int done = 0;
  std::uint64_t frontier_at_first_cycle = 0;
  std::uint64_t memo_hits_at_last_cycle = 0;
  std::uint64_t frontier_at_last_cycle = 0;
  std::function<void()> tick = [&] {
    fs.start(100, 0, 1e3, [&] {
      ++done;
      if (done == 1) frontier_at_first_cycle = fs.stats().frontier_flows;
      if (done < cycles) {
        tick();
      } else {
        memo_hits_at_last_cycle = fs.stats().warm_memo_hits;
        frontier_at_last_cycle = fs.stats().frontier_flows;
        check_against_oracle(fs, fabric);
      }
    });
  };
  tick();
  eng.run();
  // Every resolve after the first full add/remove cycle replays the memo:
  // removals return to the 24-flow base state, re-adds reproduce the 25-flow
  // stream (the new flow appends at the end with an identical path).
  EXPECT_EQ(memo_hits_at_last_cycle,
            static_cast<std::uint64_t>(2 * cycles - 1));
  EXPECT_EQ(frontier_at_last_cycle, frontier_at_first_cycle);
  EXPECT_EQ(fs.stats().fallback_solves, 0u);
  EXPECT_GT(fs.stats().warm_solves, 0u);
}

// Regression (ISSUE 7 satellite 1): redundant fail/restore calls — failing an
// already-failed link, restoring a never-failed one — are no-ops that must not
// bump the capacity epoch, so memo hits survive them. Before the idempotency
// fix each redundant call invalidated both memo generations and the no-op
// churn above degraded to full warm solves.
TEST(FlowSimWarmStart, MemoHitsSurviveRedundantFailRestore) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  const int dead = fabric.topology().ejection_link(60);
  const int never_failed = fabric.topology().ejection_link(61);
  ASSERT_TRUE(fabric.fail_link(dead));
  const std::uint64_t epoch_after_fail = fabric.capacity_epoch();
  // Same recurring-stream shape as NoOpChurnReplaysFromMemoWithEmptyFrontier,
  // but every completion hammers the fabric with redundant fail/restore.
  for (int s = 4; s < 17; ++s) fs.start(s, 0, 1e12, [] {});
  for (int s = 17; s < 28; ++s) fs.start(s, 1, 1e12, [] {});
  const int cycles = 6;
  int done = 0;
  std::uint64_t memo_hits_at_last_cycle = 0;
  std::function<void()> tick = [&] {
    fs.start(100, 0, 1e3, [&] {
      ++done;
      EXPECT_FALSE(fabric.fail_link(dead));             // already failed
      EXPECT_FALSE(fabric.restore_link(never_failed));  // never failed
      if (done < cycles) {
        tick();
      } else {
        memo_hits_at_last_cycle = fs.stats().warm_memo_hits;
      }
    });
  };
  tick();
  eng.run();
  EXPECT_EQ(fabric.capacity_epoch(), epoch_after_fail);
  EXPECT_EQ(fs.stats().warm_memo_stale, 0u);
  EXPECT_EQ(memo_hits_at_last_cycle,
            static_cast<std::uint64_t>(2 * cycles - 1));
}

// Regression (ISSUE 7 satellite 4): a resolve that throws std::invalid_argument
// (non-finite / negative capacity) used to abandon `live_links_` mid-compaction,
// leaving the simulator permanently broken. The throw must be deferred until
// the invariant is restored: a failed resolve leaves the simulator re-solvable.
TEST(FlowSimWarmStart, FailedResolveLeavesSimulatorReSolvable) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  // Incast deep enough that resolves run the warm path with a populated
  // live-link set (the structure the bug corrupted).
  for (int s = 4; s < 14; ++s) fs.start(s, 0, 1e12, [] {});
  check_against_oracle(fs, fabric);
  const int eject0 = fabric.topology().ejection_link(0);
  ASSERT_TRUE(fabric.set_link_capacity(eject0, -2.0));
  EXPECT_THROW(fs.start(14, 0, 1e12, [] {}), std::invalid_argument);
  // Still broken the same way: the second attempt must throw too, not crash
  // or silently mis-solve on a corrupted live-link set.
  EXPECT_THROW(fs.start(15, 0, 1e12, [] {}), std::invalid_argument);
  ASSERT_TRUE(fabric.clear_link_capacity(eject0));
  fs.start(16, 0, 1e12, [] {});  // resolves cleanly again
  check_against_oracle(fs, fabric);
}

// The warm solve's batched update path — one firing link freezing more than
// parallel_update_min flows in a set touching more than
// parallel_scan_threshold links — pinned against the oracle at every thread
// count. Synthetic paths give the scale without a 4096-endpoint topology:
// every incast flow crosses the shared link 0 plus two private links.
TEST(FlowSimWarmStart, BatchedUpdatePathMatchesOracleAcrossThreads) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    sim::Engine eng;
    auto t = topo::Topology::uniform_dragonfly(16, {16, 4}, 1, 25e9, 180e-9);
    net::Fabric fabric(std::move(t), net::FabricConfig{});
    const std::size_t incast = 2100;
    const std::size_t extras = 50;
    ASSERT_GE(fabric.topology().links().size(), 1 + 2 * incast);
    ASSERT_GT(incast, net::solver_tuning().parallel_update_min);
    net::FlowSim fs(eng, fabric);
    int done = 0;
    for (std::size_t f = 0; f < incast; ++f)
      fs.start_on_path({0, static_cast<int>(1 + 2 * f),
                        static_cast<int>(2 + 2 * f)},
                       1e9, [&] { ++done; });
    // Extra flows that do NOT cross link 0 (each rides one incast flow's
    // private link): with them present, link 0 no longer covers the whole
    // active set, so the single-bottleneck closed form declines and the
    // resolve runs the general warm loop — whose first iteration freezes
    // the 2100-flow batch through the parallel update path under test.
    for (std::size_t g = 0; g < extras; ++g)
      fs.start_on_path({static_cast<int>(1 + 2 * g)}, 1e9, [&] { ++done; });
    check_against_oracle(fs, fabric);
    EXPECT_GT(fs.stats().warm_solves, 2000u);
    EXPECT_GT(fs.stats().warm_single_hits, 0u);  // pure-incast ramp-up
    EXPECT_GT(fs.stats().warm_solves,
              fs.stats().warm_single_hits + extras);  // general loop ran too
    EXPECT_EQ(fs.stats().fallback_solves, 0u);
    eng.run();
    EXPECT_EQ(done, static_cast<int>(incast + extras));
  }
}

// Property: a removal-only delta whose removed flow froze *after* the first
// water-filling level replays the untouched frozen prefix instead of
// re-deriving it — here the level-1 incast victims are re-frozen wholesale
// and only the surviving level-2 flow is iterated.
TEST(FlowSimWarmStart, RemovalOnlyDeltaReplaysFrozenPrefix) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  // B goes first (so its removal later yields a path stream the two-slot
  // memo no longer holds, forcing the frozen-prefix path rather than a memo
  // hit): a group-2 source to an uncongested group-0 endpoint. It shares
  // its injection and global links with the incast flows below but is alone
  // on its ejection link, so it freezes at level 2 — and completes long
  // before the level-1 incast victims.
  bool b_done = false;
  net::FlowSim::Stats after_add{};
  fs.start(33, 12, 1e9, [&] {
    b_done = true;
    const auto& st = fs.stats();
    EXPECT_EQ(st.warm_prefix_hits, after_add.warm_prefix_hits + 1);
    EXPECT_EQ(st.warm_memo_hits, after_add.warm_memo_hits);
    // All 16 level-1 survivors were replayed: only C (level 2) was
    // re-derived, so this resolve contributed exactly one frontier flow.
    EXPECT_EQ(st.frontier_flows, after_add.frontier_flows + 1);
    check_against_oracle(fs, fabric);
  });
  // C persists past B's completion and also freezes at level 2 (another
  // group-2 source alone on its group-0 ejection link). With C around, the
  // post-removal set is not a pure single-bottleneck incast, so the closed
  // form declines and the frozen-prefix replay is what must serve it.
  fs.start(40, 13, 1e12, [] {});
  // 16 incast flows pinned at level 1 by endpoint 0's ejection link; their
  // sources include group 2, connecting them to B's and C's links.
  for (int k = 0; k < 16; ++k) fs.start(20 + k, 0, 1e12, [] {});
  after_add = fs.stats();  // B's completion callback fires inside run()
  eng.run();
  EXPECT_TRUE(b_done);
  EXPECT_EQ(fs.stats().fallback_solves, 0u);
}

// ---------------------------------------------------- rate write-back ---

// The ISSUE 8 differential: the change-list write-back (applied set) union
// the proven no-ops (skipped set) must equal the old whole-set write, bit
// for bit. Reference mode (`incremental_writeback = false`) routes every
// solver result through set_rate; incremental mode applies only the change
// list and coalesces same-instant uniform rates lazily. Identical completion
// sequences — at every thread count — prove the two writes are the same
// function of the solve, and the in-run oracle checks (which read rates
// through `for_each_flow`, i.e. through any pending uniform rate) pin the
// observable rates as well.
TEST(FlowSimWriteback, ChangeListEqualsWholeSetWriteBitwise) {
  ThreadCountGuard guard;
  for (const FabricFamily& fam : kFamilies) {
    SCOPED_TRACE(fam.name);
    for (Shape shape : {Shape::Incast, Shape::AllToAll, Shape::Permutation}) {
      sim::set_thread_count(1);
      net::FlowSim::Stats ref{};
      const auto baseline =
          run_shape(fam, shape, /*warm_start=*/true, 1, nullptr,
                    /*incremental_writeback=*/false, &ref);
      // Reference mode hands every solved flow through the write-back, so the
      // counter pair partitions the whole-set write exactly.
      EXPECT_EQ(ref.writeback_applied + ref.writeback_skipped, ref.flows_solved);
      EXPECT_GT(ref.writeback_applied, 0u);
      for (int threads : {1, 2, 8}) {
        int checks = 0;
        net::FlowSim::Stats inc{};
        const auto times = run_shape(fam, shape, /*warm_start=*/true, threads,
                                     &checks, /*incremental_writeback=*/true,
                                     &inc);
        ASSERT_EQ(times.size(), baseline.size());
        for (std::size_t i = 0; i < times.size(); ++i)
          EXPECT_EQ(times[i], baseline[i])
              << "shape=" << static_cast<int>(shape) << " threads=" << threads
              << " completion " << i;
        EXPECT_GT(checks, 0);
        EXPECT_GT(inc.writeback_applied, 0u);
        // Coalescing can only shrink the applied set (same-instant uniform
        // segments are zero-width; intermediate values never materialise).
        EXPECT_LE(inc.writeback_applied, ref.writeback_applied);
        if (shape == Shape::Incast && !fam.rotor) {
          // The tentpole claim at test scale: incast write-back is dominated
          // by skips, not applications. (Rotor slot boundaries legitimately
          // re-rate most of the set each transition, so the skip-dominance
          // claim is for the static families; the bitwise equality above
          // holds for all three.)
          EXPECT_LT(inc.writeback_applied, inc.writeback_skipped);
          EXPECT_GT(inc.minshare_incr, 0u);  // summary verdicts actually ran
        }
      }
    }
  }
}

// Satellite: stall and Drop transitions ride the applied set exactly once.
// A flow whose rate goes to zero is `applied` on the transition (set_rate
// does real work: accrual + stall bookkeeping) and `skipped` on every later
// resolve it sits through — never re-applied.
TEST(FlowSimWriteback, StallAndDropTransitionsAppliedExactlyOnce) {
  for (net::StallPolicy policy :
       {net::StallPolicy::Stall, net::StallPolicy::Drop}) {
    sim::Engine eng;
    auto fabric = small_dragonfly(net::Routing::Minimal);
    fabric.fail_link(fabric.topology().ejection_link(3));
    // fallback_fraction 0 pushes every resolve through the warm whole-set
    // path, so the victim is re-presented to the write-back each time.
    net::FlowSim fs(eng, fabric,
                    {.fallback_fraction = 0.0, .stall_policy = policy});
    bool victim_done = false;
    fs.start(0, 3, 1e9, [&] { victim_done = true; });
    const auto s1 = fs.stats();
    // Exactly one application: the 0-rate transition (fresh flows hold rate
    // 0 but are not stalled, so the write is not a no-op).
    EXPECT_EQ(s1.writeback_applied, 1u);
    if (policy == net::StallPolicy::Drop) {
      EXPECT_EQ(fs.dropped_flows(), 1u);
      EXPECT_EQ(fs.active_flows(), 0u);
      continue;
    }
    ASSERT_EQ(fs.stalled_flows(), 1u);
    // A healthy flow forces another whole-set resolve with the stalled
    // victim still active: the victim must land in the skipped set.
    bool other_done = false;
    fs.start(4, 5, 17.5e9, [&] { other_done = true; });
    const auto s2 = fs.stats();
    EXPECT_EQ(s2.writeback_applied, s1.writeback_applied + 1);  // healthy only
    EXPECT_GE(s2.writeback_skipped, s1.writeback_skipped + 1);  // victim skips
    eng.run();
    EXPECT_TRUE(other_done);
    EXPECT_FALSE(victim_done);
    EXPECT_EQ(fs.stalled_flows(), 1u);
  }
}

// Satellite: the full stall/restore/drop churn stays bitwise identical
// across write-back modes — mid-run capacity failures and recoveries
// (which invalidate the min-share summary and force eager paths) produce
// the same completion sequence whether the write-back is change-list or
// whole-set.
TEST(FlowSimWriteback, StallRestoreDropChurnBitwiseAcrossModes) {
  for (net::StallPolicy policy :
       {net::StallPolicy::Stall, net::StallPolicy::Drop}) {
    auto run = [&](bool incw) {
      sim::Engine eng;
      auto fabric = small_dragonfly(net::Routing::Minimal);
      const int ej3 = fabric.topology().ejection_link(3);
      net::FlowSim fs(eng, fabric,
                      {.fallback_fraction = 0.25,
                       .incremental_writeback = incw,
                       .stall_policy = policy});
      std::vector<double> times;
      int completed = 0, launched = 0;
      const int total = 96;
      sim::Rng rng(777);
      std::function<void()> launch = [&] {
        if (launched >= total) return;
        const int i = launched++;
        // Mostly incast into endpoint 0 (the warm fast path), with every
        // sixth flow aimed at the failure-prone endpoint 3.
        const int src =
            1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(30)));
        const int dst = (i % 6 == 5) ? 3 : 0;
        fs.start(src == dst ? src + 1 : src, dst, rng.uniform(1e6, 2e8), [&] {
          ++completed;
          times.push_back(eng.now());
          // Fail mid-churn, restore later: stalls (or drops) happen while
          // the incast fast path is hot.
          if (completed == 20) fabric.fail_link(ej3);
          if (completed == 48) fabric.restore_link(ej3);
          launch();
        });
      };
      for (int i = 0; i < 16; ++i) launch();
      eng.run();
      return std::make_pair(times, fs.stats());
    };
    const auto [ref_times, ref_stats] = run(false);
    const auto [inc_times, inc_stats] = run(true);
    ASSERT_EQ(inc_times.size(), ref_times.size());
    for (std::size_t i = 0; i < inc_times.size(); ++i)
      EXPECT_EQ(inc_times[i], ref_times[i])
          << "policy=" << static_cast<int>(policy) << " completion " << i;
    EXPECT_EQ(ref_stats.writeback_applied + ref_stats.writeback_skipped,
              ref_stats.flows_solved);
    EXPECT_LE(inc_stats.writeback_applied, ref_stats.writeback_applied);
  }
}

}  // namespace
