// Rotor slot-boundary properties (ISSUE 9 satellite 2): the epoch discipline
// of slot transitions, the warm-memo staleness they induce, and the drain
// behaviour of flows whose matching goes dark — at thread counts {1, 2, 8}.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "core/xscale.hpp"

namespace {

using namespace xscale;

struct ThreadCountGuard {
  ~ThreadCountGuard() { sim::set_thread_count(1); }
};

net::Fabric rotor_fabric(int n_switches, int eps_per_switch, int n_matchings,
                         double slot_s, double duty,
                         net::Routing r = net::Routing::Minimal) {
  net::FabricConfig cfg;
  cfg.routing = r;
  cfg.congestion_control = true;
  cfg.nic_efficiency = 0.70;
  return net::Fabric(
      topo::Topology::rotor(n_switches, eps_per_switch, n_matchings, slot_s,
                            duty, 25e9, 180e-9),
      cfg);
}

// --------------------------------------------------- epoch-per-slot bump ---

// Contract: every slot transition re-prices two whole matchings through ONE
// batched `set_link_capacities` call, so the overlay's capacity epoch
// advances by exactly one per transition — never once per link.
TEST(RotorSchedule, EpochBumpsExactlyOncePerSlotTransition) {
  sim::Engine eng;
  auto fabric = rotor_fabric(8, 2, 7, 100e-6, 0.9);
  const std::uint64_t epoch0 = fabric.capacity_epoch();
  net::RotorSchedule rotor(eng, fabric);
  rotor.start();
  // Nothing else drives the engine: a sentinel event keeps the rotation
  // alive for exactly 10 slot widths, then the auto-stop drains the run.
  eng.schedule_in(10.5 * 100e-6, [] {});
  eng.run();
  EXPECT_GE(rotor.transitions(), 10u);
  EXPECT_EQ(fabric.capacity_epoch() - epoch0, rotor.transitions());
  // Slot index is transitions mod n_matchings.
  EXPECT_EQ(rotor.current_slot(),
            static_cast<int>(rotor.transitions() % 7));
  EXPECT_FALSE(rotor.running());  // auto-stopped with nothing left to drive
}

TEST(RotorSchedule, SingleMatchingHasNothingToRotate) {
  sim::Engine eng;
  auto fabric = rotor_fabric(4, 2, 1, 100e-6, 1.0);
  const std::uint64_t epoch0 = fabric.capacity_epoch();
  net::RotorSchedule rotor(eng, fabric);
  rotor.start();  // no-op: one matching is permanently live
  EXPECT_FALSE(rotor.running());
  eng.run();
  EXPECT_EQ(rotor.transitions(), 0u);
  EXPECT_EQ(fabric.capacity_epoch(), epoch0);
}

TEST(RotorSchedule, NonRotorFabricIsRejected) {
  sim::Engine eng;
  net::FabricConfig cfg;
  net::Fabric fabric(topo::Topology::fat_tree(4, 2, 25e9, 180e-9), cfg);
  EXPECT_THROW(net::RotorSchedule(eng, fabric), std::invalid_argument);
}

// ------------------------------------------ churn across thread counts ---

// Contract: rotor churn — slot transitions re-pricing the fabric under
// whole-set and component re-solves — is byte-identical at every thread
// count: same slot sequence, same completion instants, same solver stats.
TEST(RotorChurn, SlotChurnIsIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  std::vector<double> base_times;
  net::FlowSim::Stats base_stats;
  std::uint64_t base_transitions = 0;
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    sim::Engine eng;
    auto fabric = rotor_fabric(8, 8, 7, 250e-6, 0.9);
    net::FlowSim fs(eng, fabric, {.fallback_fraction = 0.25});
    net::RotorSchedule rotor(eng, fabric, &fs);
    rotor.start();
    sim::Rng rng(2026);
    const int eps = fabric.topology().num_endpoints();
    int launched = 0;
    const int total = 120;
    std::vector<double> times;
    std::function<void()> launch = [&] {
      if (launched >= total) return;
      ++launched;
      const int src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
      int dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
      if (dst == src) dst = (dst + 1) % eps;
      fs.start(src, dst, rng.uniform(1e6, 5e7), [&] {
        times.push_back(eng.now());
        launch();
      });
    };
    for (int i = 0; i < 16; ++i) launch();
    eng.run();
    const auto& st = fs.stats();
    EXPECT_GT(rotor.transitions(), 10u) << "threads=" << threads;
    EXPECT_GT(st.warm_solves, 0u) << "threads=" << threads;
    EXPECT_EQ(times.size(), static_cast<std::size_t>(total))
        << "threads=" << threads;
    if (threads == 1) {
      base_times = times;
      base_stats = st;
      base_transitions = rotor.transitions();
    } else {
      EXPECT_EQ(times, base_times) << "threads=" << threads;
      EXPECT_TRUE(st == base_stats) << "threads=" << threads;
      EXPECT_EQ(rotor.transitions(), base_transitions)
          << "threads=" << threads;
    }
  }
}

// ------------------------------------------------- dark-matching drain -----

// A flow mid-transfer when its matching's slot ends must drain to a stall
// (StallPolicy::Stall: rate 0, still active, recovers when the matching
// returns) or to a drop (StallPolicy::Drop: removed at the transition, its
// completion callback never fires). rotor(4, 1, 3): matching m holds links
// i -> (i+m+1) mod 4, so endpoint 0 -> switch 0, endpoint 1 -> switch 1,
// and the 0->1 route rides matching 0 — live in slot 0, dark in slots 1, 2.
TEST(RotorDrain, StallPolicyParksAndRecoversAcrossDarkSlots) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    sim::Engine eng;
    const double slot = 100e-6;
    auto fabric = rotor_fabric(4, 1, 3, slot, 1.0);
    net::FlowSim fs(eng, fabric, {.stall_policy = net::StallPolicy::Stall});
    net::RotorSchedule rotor(eng, fabric, &fs);
    rotor.start();
    // Active inter-switch capacity is 25e9 (duty 1.0): one slot moves at
    // most 2.5e6 bytes (terminal links are slower still), so 6e6 bytes
    // cannot finish within slot 0 — the flow MUST cross a dark period.
    bool done = false;
    double done_at = 0.0;
    fs.start(0, 1, 6e6, [&] {
      done = true;
      done_at = eng.now();
    });
    // Probe the stall while matching 0 is dark (mid slot 1).
    bool saw_stall = false;
    eng.schedule_in(1.5 * slot, [&] {
      saw_stall = fs.stalled_flows() == 1 && fs.active_flows() == 1;
    });
    eng.run();
    EXPECT_TRUE(done) << "threads=" << threads;
    EXPECT_TRUE(saw_stall) << "threads=" << threads;
    // Completion happens in a later live period of matching 0 (slot >= 3).
    EXPECT_GT(done_at, 3.0 * slot) << "threads=" << threads;
    EXPECT_EQ(fs.stalled_flows(), 0u);
    EXPECT_EQ(fs.dropped_flows(), 0u);
  }
}

TEST(RotorDrain, DropPolicyRemovesFlowAtTheSlotBoundary) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    sim::Engine eng;
    const double slot = 100e-6;
    auto fabric = rotor_fabric(4, 1, 3, slot, 1.0);
    net::FlowSim fs(eng, fabric, {.stall_policy = net::StallPolicy::Drop});
    net::RotorSchedule rotor(eng, fabric, &fs);
    rotor.start();
    bool done = false;
    std::vector<std::uint64_t> dropped;
    fs.on_stall([&](std::uint64_t id) { dropped.push_back(id); });
    const auto id = fs.start(0, 1, 6e6, [&] { done = true; });
    eng.run();
    EXPECT_FALSE(done) << "threads=" << threads;
    EXPECT_EQ(fs.active_flows(), 0u);
    EXPECT_EQ(fs.dropped_flows(), 1u);
    ASSERT_EQ(dropped.size(), 1u);
    EXPECT_EQ(dropped[0], id);
    // The drop happened AT the first transition (matching 0 went dark), and
    // with nothing left to drive, the rotation auto-stopped right there.
    EXPECT_FALSE(rotor.running());
  }
}

// ----------------------------------------------------- route stability -----

// Slot transitions re-price links but never steer packets: across more than
// five transitions with live traffic, every sampled pair routes exactly as it
// did before the rotation started.
TEST(RotorRouting, SlotTransitionsLeaveRoutesUnchanged) {
  sim::Engine eng;
  auto fabric = rotor_fabric(8, 4, 7, 100e-6, 0.9);
  net::FlowSim fs(eng, fabric, {});
  net::RotorSchedule rotor(eng, fabric, &fs);
  const int eps = fabric.topology().num_endpoints();
  sim::Rng route_rng(3);
  const auto sample_routes = [&] {
    std::vector<std::vector<int>> routes;
    for (int a = 0; a < eps; ++a)
      for (int b = 0; b < eps; b += 3)
        if (a != b) routes.push_back(fabric.route(a, b, route_rng));
    return routes;
  };
  const auto before = sample_routes();
  rotor.start();
  // One long-lived flow per (i, i+5) pair, relaunched until 96 complete.
  int completions = 0;
  std::function<void(int)> relaunch = [&](int i) {
    const int src = i % eps;
    const int dst = (src + 5) % eps;
    fs.start(src, dst, 2e6, [&, i] {
      ++completions;
      if (completions < 96) relaunch(i);
    });
  };
  for (int i = 0; i < 24; ++i) relaunch(i);
  eng.run();
  EXPECT_GE(rotor.transitions(), 5u);
  EXPECT_EQ(sample_routes(), before) << "slot transitions re-steered a route";
}

}  // namespace
