// Tests for the incremental FlowSim rate solver: differential equivalence
// against the full max-min oracle on randomized churn, stall/drop handling of
// zero-rate flows over failed links, and event-heap boundedness under the
// cancel-heavy reschedule pattern.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
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
      // The point of the machinery: restricted solves happened.
      EXPECT_GT(fs.stats().component_solves, 0u);
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

TEST(FlowSim, StartOnPathRejectsBadPathsWithoutSideEffects) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Adaptive);
  const int n = static_cast<int>(fabric.topology().links().size());
  net::FlowSim fs(eng, fabric);
  const std::uint64_t first = fs.start_on_path({0, 1}, 1e9, [] {});
  const auto stats = fs.stats();
  const auto pending = eng.pending_events();
  EXPECT_THROW(fs.start_on_path({}, 1e9, [] {}), std::invalid_argument);
  for (const auto& path : std::vector<std::vector<int>>{
           {-1}, {n}, {0, n + 5}, {2, -7, 3}}) {
    EXPECT_THROW(fs.start_on_path(path, 1e9, [] {}), std::out_of_range)
        << path.size() << "-link path";
  }
  EXPECT_EQ(fs.active_flows(), 1u);
  EXPECT_TRUE(fs.stats() == stats);
  EXPECT_EQ(eng.pending_events(), pending);
  // The next valid start takes the next id, and both flows complete.
  EXPECT_EQ(fs.start_on_path({n - 1}, 1e9, [] {}), first + 1);
  EXPECT_EQ(fs.active_flows(), 2u);
  eng.run();
  EXPECT_EQ(fs.active_flows(), 0u);
}

// A NaN or infinite size would hold a flow's links forever: it would never
// drain, complete or stall. Both entry points reject it before any state
// changes — routing included, so the adaptive router's RNG and load counts
// are untouched and the rest of the run is bit-identical to one without the
// rejected calls.
TEST(FlowSim, StartRejectsNonFiniteBytesWithoutSideEffects) {
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  auto run = [&](bool with_rejected) {
    sim::Engine eng;
    net::Fabric fabric(
        topo::Topology::uniform_dragonfly(4, {4, 2}, 1, 25e9, 180e-9),
        net::FabricConfig{});
    net::FlowSim fs(eng, fabric);
    std::vector<double> done;
    const std::uint64_t first =
        fs.start(1, 5, 1e9, [&] { done.push_back(eng.now()); });
    if (with_rejected) {
      const auto stats = fs.stats();
      const auto pending = eng.pending_events();
      for (double bytes : kBad) {
        EXPECT_THROW(fs.start(0, 5, bytes, [] {}), std::invalid_argument)
            << bytes;
        EXPECT_THROW(fs.start_on_path({0, 1}, bytes, [] {}),
                     std::invalid_argument)
            << bytes;
      }
      EXPECT_EQ(fs.active_flows(), 1u);
      EXPECT_TRUE(fs.stats() == stats);
      EXPECT_EQ(eng.pending_events(), pending);
    }
    // The next valid start takes the next id.
    EXPECT_EQ(fs.start(0, 5, 1e9, [&] { done.push_back(eng.now()); }),
              first + 1);
    eng.run();
    EXPECT_EQ(fs.active_flows(), 0u);
    return done;
  };
  const auto clean = run(false);
  ASSERT_EQ(clean.size(), 2u);
  EXPECT_EQ(run(true), clean);
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
// same seed drives every configuration, so any divergence between the
// incremental and the cold full solve (or across thread counts) shows up as
// a completion-time mismatch. On the rotor family every run carries a live
// RotorSchedule: both modes cross identical slot boundaries, so the bitwise
// contract covers wholesale slot-capacity churn as well.
std::vector<double> run_shape(const FabricFamily& fam, Shape shape,
                              bool incremental, int threads, int* oracle_checks,
                              bool incremental_writeback = true,
                              net::FlowSim::Stats* out_stats = nullptr) {
  sim::set_thread_count(threads);
  sim::Engine eng;
  auto fabric = fam.make(net::Routing::Minimal);
  // A low fallback fraction pushes even moderate merged components through
  // the whole-set path.
  net::FlowSim fs(eng, fabric,
                  {.incremental = incremental,
                   .fallback_fraction = 0.25,
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
  if (incremental && shape == Shape::Incast) {
    // The cliff pattern must actually ride the whole-set path.
    EXPECT_GT(fs.stats().warm_solves, 0u) << fam.name;
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

// The whole-set contract: incremental churn with whole-set re-solves is
// bit-identical to the cold full solve (and both to the reference oracle)
// under incast, all-to-all and permutation churn, at every thread count —
// on every topology family (dragonfly, oversubscribed fat-tree,
// live-slotted rotor).
TEST(FlowSimWarmStart, MatchesColdAndOracleAcrossShapesAndThreads) {
  ThreadCountGuard guard;
  for (const FabricFamily& fam : kFamilies) {
    SCOPED_TRACE(fam.name);
    for (Shape shape : {Shape::Incast, Shape::AllToAll, Shape::Permutation}) {
      sim::set_thread_count(1);
      const auto baseline =
          run_shape(fam, shape, /*incremental=*/false, 1, nullptr);
      for (int threads : {1, 2, 8}) {
        int checks = 0;
        const auto times =
            run_shape(fam, shape, /*incremental=*/true, threads, &checks);
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
// identically-routed one — returns to the same state every cycle, so every
// cycle must reproduce the first one's rates bit for bit, and they must
// equal the oracle's. Every completion also hammers the fabric with
// redundant fail/restore calls (failing an already-failed link, restoring a
// never-failed one): those are no-ops that must leave the capacity epoch,
// and therefore the rates, unchanged.
TEST(FlowSimWarmStart, NoOpChurnAndRedundantFailRestoreKeepRates) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  const int dead = fabric.topology().ejection_link(60);
  const int never_failed = fabric.topology().ejection_link(61);
  ASSERT_TRUE(fabric.fail_link(dead));
  const std::uint64_t epoch_after_fail = fabric.capacity_epoch();
  // Two incast groups with different fan-in (13 flows into endpoint 0,
  // 11 into endpoint 1) make a genuinely multi-level solution, so the
  // single-bottleneck closed form declines and the whole-set core runs.
  for (int s = 4; s < 17; ++s) fs.start(s, 0, 1e12, [] {});
  for (int s = 17; s < 28; ++s) fs.start(s, 1, 1e12, [] {});
  auto rates_now = [&] {
    std::vector<double> rates;
    fs.for_each_flow([&](std::uint64_t, const std::vector<int>&, double,
                         double r) { rates.push_back(r); });
    return rates;
  };
  const auto base_rates = rates_now();
  const int cycles = 6;
  int done = 0;
  std::vector<double> loaded_rates;  // with the churned flow active
  std::function<void()> tick = [&] {
    fs.start(100, 0, 1e3, [&] {
      ++done;
      EXPECT_FALSE(fabric.fail_link(dead));             // already failed
      EXPECT_FALSE(fabric.restore_link(never_failed));  // never failed
      EXPECT_EQ(fabric.capacity_epoch(), epoch_after_fail);
      EXPECT_EQ(rates_now(), base_rates) << "cycle " << done;
      check_against_oracle(fs, fabric);
      if (done < cycles) tick();
    });
    if (loaded_rates.empty()) loaded_rates = rates_now();
    EXPECT_EQ(rates_now(), loaded_rates) << "cycle " << done + 1;
    check_against_oracle(fs, fabric);
  };
  tick();
  eng.run();
  EXPECT_EQ(done, cycles);
  EXPECT_EQ(fabric.capacity_epoch(), epoch_after_fail);
  EXPECT_GT(fs.stats().warm_solves, 0u);
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

// A large whole-set solve — one firing link freezing 2,100 flows in a set
// touching more than 4,000 links — pinned against the oracle at every
// thread count. Synthetic paths give the scale without a 4096-endpoint
// topology: every incast flow crosses the shared link 0 plus two private
// links.
TEST(FlowSimWarmStart, LargeIncastMatchesOracleAcrossThreads) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    sim::Engine eng;
    auto t = topo::Topology::uniform_dragonfly(16, {16, 4}, 1, 25e9, 180e-9);
    net::Fabric fabric(std::move(t), net::FabricConfig{});
    const std::size_t incast = 2100;
    const std::size_t extras = 50;
    ASSERT_GE(fabric.topology().links().size(), 1 + 2 * incast);
    net::FlowSim fs(eng, fabric);
    int done = 0;
    for (std::size_t f = 0; f < incast; ++f)
      fs.start_on_path({0, static_cast<int>(1 + 2 * f),
                        static_cast<int>(2 + 2 * f)},
                       1e9, [&] { ++done; });
    // Extra flows that do NOT cross link 0 (each rides one incast flow's
    // private link): with them present, link 0 no longer covers the whole
    // active set, so the single-bottleneck closed form declines and the
    // resolve runs the CSR core, whose first iteration freezes the
    // 2100-flow batch.
    for (std::size_t g = 0; g < extras; ++g)
      fs.start_on_path({static_cast<int>(1 + 2 * g)}, 1e9, [&] { ++done; });
    check_against_oracle(fs, fabric);
    EXPECT_GT(fs.stats().warm_solves, 2000u);
    EXPECT_GT(fs.stats().warm_single_hits, 0u);  // pure-incast ramp-up
    EXPECT_GT(fs.stats().warm_solves,
              fs.stats().warm_single_hits + extras);  // the CSR core ran too
    eng.run();
    EXPECT_EQ(done, static_cast<int>(incast + extras));
  }
}

// ---------------------------------------------------- rate write-back ---

// The write-back differential: the lazy uniform-rate park must equal the eager
// write, bit for bit. Reference mode (`incremental_writeback = false`)
// writes every single-bottleneck rate to every flow at once; incremental
// mode parks it and coalesces same-instant uniform rates lazily. Both count
// each solver result as applied (it changed a rate) or skipped (a proven
// no-op). Identical completion
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
          run_shape(fam, shape, /*incremental=*/true, 1, nullptr,
                    /*incremental_writeback=*/false, &ref);
      // Reference mode counts every solved flow once, so the counter pair
      // partitions the solved set exactly.
      EXPECT_EQ(ref.writeback_applied + ref.writeback_skipped, ref.flows_solved);
      EXPECT_GT(ref.writeback_applied, 0u);
      for (int threads : {1, 2, 8}) {
        int checks = 0;
        net::FlowSim::Stats inc{};
        const auto times = run_shape(fam, shape, /*incremental=*/true, threads,
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

// ---------------------------------------------------------- freeze ledger ---

net::Fabric family_fat_tree(net::Routing r) {
  // 16 leaves x 8 endpoints, non-blocking: contention only at the endpoints.
  return make_fabric(topo::Topology::fat_tree(16, 8, 25e9, 180e-9), r, true);
}

// Seeded start/complete churn with mid-run link failures. Every few
// milliseconds of simulated time a link of some active flow fails (and is
// restored later) through `notify_capacity_change`; under Drop every
// dropped flow is replaced. With `oracle_checks` every live rate is checked
// against the reference after every start, completion and capacity change.
// Returns the completion instants.
std::vector<double> ledger_churn(const FabricFamily& fam,
                                 net::StallPolicy policy, bool incremental,
                                 std::uint64_t seed, int* oracle_checks,
                                 net::FlowSim::Stats* out_stats) {
  sim::Engine eng;
  auto fabric = fam.make(net::Routing::Adaptive);
  net::FlowSim fs(eng, fabric,
                  {.incremental = incremental, .stall_policy = policy});
  std::optional<net::RotorSchedule> rotor;
  if (fam.rotor) {
    rotor.emplace(eng, fabric, &fs);
    rotor->start();
  }
  sim::Rng rng(seed);
  const int eps = fabric.topology().num_endpoints();
  const int total = 240;
  int launched = 0;
  std::vector<double> times;
  auto check = [&] {
    if (oracle_checks) *oracle_checks += check_against_oracle(fs, fabric);
  };
  std::function<void()> launch = [&] {
    if (launched >= total) return;
    ++launched;
    const int src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    int dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    if (dst == src) dst = (dst + 1) % eps;
    // Rotor slots last 250 us: smaller writes (and a wider window, below)
    // put several starts and completions into one slot, between two
    // capacity-epoch moves.
    const double scale = fam.rotor ? 1e-3 : 1.0;
    fs.start(src, dst, scale * rng.uniform(1e6, 3e8), [&] {
      times.push_back(eng.now());
      check();
      launch();
    });
    check();
  };
  fs.on_stall([&](std::uint64_t) { launch(); });
  // Fail a link of the k-th active flow every 4 ms; restore it 3 ms later.
  // Both modes hold the same flows on the same paths, so they pick the
  // same link.
  for (int k = 1; k <= 12; ++k) {
    eng.schedule_at(4e-3 * k, [&, k] {
      int victim = -1, i = 0;
      fs.for_each_flow([&](std::uint64_t, const std::vector<int>& path, double,
                           double) {
        if (i++ == k % std::max<int>(1, static_cast<int>(fs.active_flows())))
          victim = path[path.size() / 2];
      });
      if (victim < 0 || !fabric.fail_link(victim)) return;
      fs.notify_capacity_change({victim});
      check();
      eng.schedule_in(3e-3, [&, victim] {
        fabric.restore_link(victim);
        fs.notify_capacity_change({victim});
        check();
      });
    });
  }
  for (int i = 0; i < (fam.rotor ? 48 : 16); ++i) launch();
  eng.run();
  if (out_stats) *out_stats = fs.stats();
  return times;
}

// The freeze ledger's contract: component and warm re-solves that re-freeze
// a recorded prefix stay bitwise equal to the reference after every event,
// and complete every flow at the same instant as whole-set cold solves — on
// every topology family (rotor slot transitions move the capacity epoch),
// under both stall policies, across mid-run link failures.
TEST(FlowSimLedger, ReplayMatchesOracleAndColdUnderChurnAndFailures) {
  const FabricFamily families[] = {
      kFamilies[0], {"fat_tree", family_fat_tree, false}, kFamilies[1],
      kFamilies[2]};
  for (const FabricFamily& fam : families) {
    for (net::StallPolicy policy :
         {net::StallPolicy::Stall, net::StallPolicy::Drop}) {
      SCOPED_TRACE(std::string(fam.name) + " policy " +
                   std::to_string(static_cast<int>(policy)));
      int checks = 0;
      net::FlowSim::Stats st;
      const auto inc = ledger_churn(fam, policy, true, 0x1ED6, &checks, &st);
      const auto cold = ledger_churn(fam, policy, false, 0x1ED6, nullptr,
                                     nullptr);
      ASSERT_EQ(inc.size(), cold.size());
      for (std::size_t i = 0; i < inc.size(); ++i)
        EXPECT_EQ(inc[i], cold[i]) << "completion " << i;
      EXPECT_GT(checks, 1000);
      // The replay really ran: flows were re-frozen from the ledger. Not on
      // rotor under Drop: there nearly every resolve drops the flows routed
      // over a dark matching, and a Drop sweep retires the ledger.
      if (!(fam.rotor && policy == net::StallPolicy::Drop)) {
        EXPECT_GT(st.component_prefix_hits, 0u);
        EXPECT_GT(st.replayed_flows, 0u);
      }
    }
  }
}

// Hand-built problems over explicit paths: each flow's links get chosen
// capacities, so the recorded levels are known exactly. Every other flow of
// the fabric is absent, and `fallback_fraction = 1` (the default here) keeps
// every resolve on the component path.
struct LedgerCase {
  sim::Engine eng;
  net::Fabric fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs;

  explicit LedgerCase(const std::vector<std::pair<int, double>>& caps,
                      double fallback_fraction = 1.0)
      : fs(eng, fabric, {.fallback_fraction = fallback_fraction}) {
    for (const auto& [l, c] : caps) fabric.set_link_capacity(l, c);
  }
  // Reference iterations over the active set.
  std::int64_t cold_iterations() const {
    std::vector<std::vector<int>> paths;
    fs.for_each_flow([&](std::uint64_t, const std::vector<int>& p, double,
                         double) { paths.push_back(p); });
    net::SolveStats ss;
    net::max_min_rates_reference(fabric.effective_capacities(), paths, nullptr,
                                 &ss);
    return ss.iterations;
  }
};

// Links 1..4 carry a three-level component:
//   P1 {1, 2}, P2 {1}  freeze at 10/2 = 5 (level 1),
//   P3 {2, 3}          at 30 - 5 = 25 (level 2),
//   P4 {3}             at 100 - 25 = 75 (level 3).
constexpr double kBytesLong = 1e12;
std::vector<std::pair<int, double>> three_level_caps() {
  return {{1, 10.0}, {2, 30.0}, {3, 100.0}, {4, 25.0}, {5, 10.0}, {6, 100.0}};
}

// An arrival whose private link ties level 2's share exactly: in the cold
// solve that link fires at level 2, so the replay must stop there — level 1
// is re-frozen, level 2 is water-filled with the arrival in it.
TEST(FlowSimLedger, ArrivalTyingALevelShareStopsTheReplayThere) {
  LedgerCase c(three_level_caps());
  for (const std::vector<int>& p :
       std::vector<std::vector<int>>{{1, 2}, {1}, {2, 3}, {3}})
    c.fs.start_on_path(p, kBytesLong, [] {});
  const auto before = c.fs.stats();
  c.fs.start_on_path({4, 3}, kBytesLong, [] {});  // 25 / 1 ties level 2
  const auto after = c.fs.stats();
  EXPECT_EQ(after.component_prefix_hits, before.component_prefix_hits + 1);
  EXPECT_EQ(after.replayed_flows, before.replayed_flows + 2);  // P1, P2 only
  // Iterations equal the cold solve's: the arrival froze at level 2, not
  // in a level of its own after a replayed level 2.
  EXPECT_EQ(after.solver_iterations - before.solver_iterations,
            static_cast<std::uint64_t>(c.cold_iterations()));
  EXPECT_EQ(c.cold_iterations(), 3);
  check_against_oracle(c.fs, c.fabric);
  std::vector<double> rates;
  c.fs.for_each_flow([&](std::uint64_t, const std::vector<int>&, double,
                         double r) { rates.push_back(r); });
  EXPECT_EQ(rates, (std::vector<double>{5.0, 5.0, 25.0, 50.0, 25.0}));
}

// The same, where the tie appears only mid-sweep. Link 8 has one crosser,
// Y, and fires first at share s = 1.940282048706869. Link 9 (capacity r =
// 11.641692292241215) carries Y, four flows W that froze at level 2, and
// the arrival Z. Before the sweep r / 6 > s, so a probe of the scan state
// alone passes; after Y's freeze subtracts s, (r - s) / 5 rounds to <= s,
// and the cold sweep freezes W and Z at level 1 too.
TEST(FlowSimLedger, ArrivalFiringLateInTheSweepStopsTheReplay) {
  const double s = 1.940282048706869;
  const double r = 11.641692292241215;
  ASSERT_GT(r / 6, s);
  ASSERT_LE((r - s) / 5, s);
  ASSERT_GT((r - s) / 4, s);  // without Z, link 9 does not fire at level 1
  LedgerCase c({{8, s}, {9, r}});
  c.fs.start_on_path({8, 9}, kBytesLong, [] {});
  for (int i = 0; i < 4; ++i) c.fs.start_on_path({9}, kBytesLong, [] {});
  const auto before = c.fs.stats();
  c.fs.start_on_path({9}, kBytesLong, [] {});
  const auto after = c.fs.stats();
  EXPECT_EQ(after.replayed_flows, before.replayed_flows);
  EXPECT_EQ(after.solver_iterations - before.solver_iterations, 1u);
  EXPECT_EQ(c.cold_iterations(), 1);
  check_against_oracle(c.fs, c.fabric);
}

// Removals at level 1 or 2 leave fewer than two levels below the cut, and a
// one-level component has nothing to replay: all solve cold. A removal at
// level 3 replays both levels below it.
TEST(FlowSimLedger, ShallowCutsSolveColdAndDeepCutsReplay) {
  for (int removed = 0; removed < 4; ++removed) {
    SCOPED_TRACE("removed flow P" + std::to_string(removed + 1));
    LedgerCase c(three_level_caps());
    const std::vector<std::vector<int>> paths{{1, 2}, {1}, {2, 3}, {3}};
    net::FlowSim::Stats before;
    bool done = false;
    for (int i = 0; i < 4; ++i)
      c.fs.start_on_path(paths[static_cast<std::size_t>(i)],
                         i == removed ? 1.0 : kBytesLong, [&] {
                           done = true;
                           const auto& st = c.fs.stats();
                           // P1/P2 froze at level 1, P3 at level 2: cold.
                           // P4 froze at level 3: P1..P3 are re-frozen.
                           const std::uint64_t want = removed == 3 ? 3 : 0;
                           EXPECT_EQ(st.replayed_flows,
                                     before.replayed_flows + want);
                           EXPECT_EQ(st.solver_iterations -
                                         before.solver_iterations,
                                     static_cast<std::uint64_t>(
                                         c.cold_iterations()));
                           check_against_oracle(c.fs, c.fabric);
                           c.eng.stop();
                         });
    before = c.fs.stats();
    c.eng.run();
    EXPECT_TRUE(done);
  }
  // One level: both flows freeze at 10/2 on link 5; the arrival finds one
  // recorded level and solves cold.
  LedgerCase c(three_level_caps());
  c.fs.start_on_path({5, 6}, kBytesLong, [] {});
  c.fs.start_on_path({5}, kBytesLong, [] {});
  const auto before = c.fs.stats();
  c.fs.start_on_path({6}, kBytesLong, [] {});
  EXPECT_EQ(c.fs.stats().replayed_flows, before.replayed_flows);
  EXPECT_EQ(c.fs.stats().component_prefix_hits, before.component_prefix_hits);
  check_against_oracle(c.fs, c.fabric);
}

// A component re-solve replays the levels a whole-set warm pass recorded.
// The warm pass interleaves two components' levels (B at 1.5, A at 2, B at
// 8.5, 21.5 and 178.5), so B's prefix is renumbered 1..3 when B5 (level 5)
// completes and B's re-solve runs alone.
TEST(FlowSimLedger, ComponentReplaySpansAWholeSetWarmPass) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  for (const auto& [l, cap] : std::vector<std::pair<int, double>>{
           {1, 3.0}, {2, 10.0}, {3, 30.0}, {4, 200.0}, {10, 12.0}})
    fabric.set_link_capacity(l, cap);
  net::FlowSim fs(eng, fabric);
  bool done = false;
  net::FlowSim::Stats before;
  const std::vector<std::vector<int>> b_paths{
      {1, 2}, {1}, {2, 3}, {3, 4}, {4}};
  for (std::size_t i = 0; i < b_paths.size(); ++i)
    fs.start_on_path(b_paths[i], i == 4 ? 100.0 : kBytesLong, [&] {
      done = true;
      const auto& st = fs.stats();
      EXPECT_EQ(st.warm_solves, before.warm_solves);  // a component re-solve
      EXPECT_EQ(st.component_prefix_hits, before.component_prefix_hits + 1);
      EXPECT_EQ(st.replayed_flows, before.replayed_flows + 4);  // B1..B4
      EXPECT_EQ(st.solver_iterations - before.solver_iterations, 3u);
      check_against_oracle(fs, fabric);
      eng.stop();
    });
  // A: six flows on link 10 at 12/6 = 2. The sixth makes A more than half
  // of the active set, so its arrival is solved warm over A and B together.
  const auto warm_before = fs.stats().warm_solves;
  for (int i = 0; i < 6; ++i) fs.start_on_path({10}, kBytesLong, [] {});
  ASSERT_GT(fs.stats().warm_solves, warm_before);
  before = fs.stats();
  eng.run();
  EXPECT_TRUE(done);
}

// Whole-set re-solves replay the ledger too. On the three-level links
// (`fallback_fraction = 0` routes every resolve through the whole-set path),
// P4 {3} and P5 {3} share level 3 at (100 - 25) / 2 = 37.5.

// Property: a removal-only delta whose removed flow froze at level 3
// replays the two levels below it instead of re-deriving them — P1..P3 are
// re-frozen wholesale and only the surviving level-3 flow is water-filled.
TEST(FlowSimWarmStart, RemovalOnlyDeltaReplaysFrozenPrefix) {
  LedgerCase c(three_level_caps(), /*fallback_fraction=*/0.0);
  bool done = false;
  net::FlowSim::Stats before{};
  const std::vector<std::vector<int>> paths{{1, 2}, {1}, {2, 3}, {3}, {3}};
  for (std::size_t i = 0; i < paths.size(); ++i)
    c.fs.start_on_path(paths[i], i == 3 ? 1.0 : 1e12, [&] {
      done = true;
      const auto& st = c.fs.stats();
      EXPECT_EQ(st.warm_solves, before.warm_solves + 1);
      EXPECT_EQ(st.warm_prefix_hits, before.warm_prefix_hits + 1);
      EXPECT_EQ(st.replayed_flows, before.replayed_flows + 3);  // P1..P3
      // Only P5 (level 3) was re-derived: one frontier flow.
      EXPECT_EQ(st.frontier_flows, before.frontier_flows + 1);
      EXPECT_EQ(st.solver_iterations - before.solver_iterations,
                static_cast<std::uint64_t>(c.cold_iterations()));
      EXPECT_EQ(c.cold_iterations(), 3);
      check_against_oracle(c.fs, c.fabric);
      c.eng.stop();
    });
  before = c.fs.stats();  // P4's completion callback fires inside run()
  c.eng.run();
  EXPECT_TRUE(done);
}

// A whole-set re-solve after one arrival into a set with two recorded
// levels replays them: the arrival P5 cannot fire at level 1 or 2, so P1..P3
// are re-frozen and only P4 and P5 are water-filled.
TEST(FlowSimWarmStart, ArrivalReplaysFrozenPrefix) {
  LedgerCase c(three_level_caps(), /*fallback_fraction=*/0.0);
  const std::vector<std::vector<int>> paths{{1, 2}, {1}, {2, 3}, {3}};
  for (const auto& p : paths) c.fs.start_on_path(p, 1e12, [] {});
  const auto before = c.fs.stats();
  c.fs.start_on_path({3}, 1e12, [] {});
  const auto& st = c.fs.stats();
  EXPECT_EQ(st.warm_solves, before.warm_solves + 1);
  EXPECT_EQ(st.warm_prefix_hits, before.warm_prefix_hits + 1);
  EXPECT_EQ(st.replayed_flows, before.replayed_flows + 3);
  EXPECT_EQ(st.frontier_flows, before.frontier_flows + 2);  // of 5 members
  EXPECT_EQ(st.solver_iterations - before.solver_iterations,
            static_cast<std::uint64_t>(c.cold_iterations()));
  check_against_oracle(c.fs, c.fabric);
  std::vector<double> rates;
  c.fs.for_each_flow([&](std::uint64_t, const std::vector<int>&, double,
                         double r) { rates.push_back(r); });
  EXPECT_EQ(rates, (std::vector<double>{5.0, 5.0, 25.0, 37.5, 37.5}));
}

}  // namespace
