// Tests for topologies, the max-min solver, routing, and the fabric model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "machines/machine.hpp"
#include "net/fabric.hpp"
#include "net/flowsim.hpp"
#include "net/patterns.hpp"
#include "net/solver.hpp"
#include "obs/metrics.hpp"
#include "sim/units.hpp"
#include "topo/topology.hpp"

namespace {

using namespace xscale;
using namespace xscale::units;

// ---------------------------------------------------------------- solver ----

TEST(Solver, SingleLinkEqualShare) {
  const std::vector<double> cap{10.0};
  const std::vector<std::vector<int>> paths{{0}, {0}, {0}, {0}};
  const auto r = net::max_min_rates(cap, paths);
  for (double x : r) EXPECT_DOUBLE_EQ(x, 2.5);
}

TEST(Solver, BottleneckThenResidual) {
  // Flow A uses links 0+1, flow B only link 0, flow C only link 1.
  // Link 0 cap 10, link 1 cap 4: A and C split link 1 at 2 each, then B gets
  // the residual 8 on link 0.
  const std::vector<double> cap{10.0, 4.0};
  const std::vector<std::vector<int>> paths{{0, 1}, {0}, {1}};
  const auto r = net::max_min_rates(cap, paths);
  EXPECT_DOUBLE_EQ(r[0], 2.0);
  EXPECT_DOUBLE_EQ(r[1], 8.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(Solver, WeightedFairness) {
  const std::vector<double> cap{12.0};
  const std::vector<std::vector<int>> paths{{0}, {0}};
  const std::vector<double> w{2.0, 1.0};
  const auto r = net::max_min_rates(cap, paths, &w);
  EXPECT_DOUBLE_EQ(r[0], 8.0);
  EXPECT_DOUBLE_EQ(r[1], 4.0);
}

TEST(Solver, WeightedFairnessAcrossMultipleBottlenecks) {
  // Link 0 (cap 12) carries flows A (w=2) and B (w=1); link 1 (cap 2)
  // carries B and C (w=1). B freezes at link 1's share 1.0 first; A then
  // takes the whole residual 11 on link 0.
  const std::vector<double> cap{12.0, 2.0};
  const std::vector<std::vector<int>> paths{{0}, {0, 1}, {1}};
  const std::vector<double> w{2.0, 1.0, 1.0};
  net::SolveStats ss;
  const auto r = net::max_min_rates(cap, paths, &w, &ss);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
  EXPECT_DOUBLE_EQ(r[0], 11.0);
  EXPECT_EQ(ss.iterations, 2);
}

TEST(Solver, MassiveTieCollapsesIntoOneIteration) {
  // 64 disjoint equal-capacity links, 4 flows each: every link ties at the
  // same share bitwise, so the exact-tie cutoff must freeze all 256 flows in
  // a single water-filling iteration (symmetric all-to-all patterns depend
  // on this collapse for performance).
  const int nlinks = 64, per = 4;
  std::vector<double> cap(nlinks, 25e9);
  std::vector<std::vector<int>> paths;
  for (int l = 0; l < nlinks; ++l)
    for (int f = 0; f < per; ++f) paths.push_back({l});
  net::SolveStats ss;
  const auto r = net::max_min_rates(cap, paths, nullptr, &ss);
  for (double x : r) EXPECT_DOUBLE_EQ(x, 25e9 / per);
  EXPECT_EQ(ss.iterations, 1);
  EXPECT_EQ(ss.bottleneck_links, nlinks);
}

TEST(Solver, NearTiesStayInSeparateIterationsForDecomposability) {
  // Shares that are close but NOT bitwise equal must freeze in separate
  // iterations, each at its own link's share. The historical 1e-9-relative
  // cutoff let the minimum "capture" a near-tied link from an unrelated
  // component, freezing its flows at the *other* component's share — so the
  // global solve and the per-component decomposition disagreed at the ULP
  // level (the warm==cold differential caught this on the oversubscribed
  // fat-tree, where drifted residuals land within 1e-9 of fresh quotients).
  const double hi = 10.0 * (1.0 + 0.5e-9);
  const std::vector<double> cap{10.0, hi};
  const std::vector<std::vector<int>> paths{{0}, {1}};
  net::SolveStats ss;
  const auto r = net::max_min_rates(cap, paths, nullptr, &ss);
  EXPECT_EQ(ss.iterations, 2);
  EXPECT_EQ(r[0], 10.0);
  EXPECT_EQ(r[1], hi);  // its own share, not the foreign minimum
  // And precisely because of that, splitting by component loses nothing:
  const auto split = net::max_min_rates_components(cap, paths);
  EXPECT_EQ(split[0], r[0]);
  EXPECT_EQ(split[1], r[1]);
}

TEST(Solver, MalformedCapacitiesThrowInAllBuildModes) {
  // The old bare assert(std::isfinite(min_share)) compiled out under
  // -DNDEBUG; NaN capacities then flowed through std::max as 0 and produced
  // silently wrong rates. The guard must hold in release builds too.
  const std::vector<std::vector<int>> paths{{0}};
  EXPECT_THROW(
      net::max_min_rates({std::nan("")}, paths), std::invalid_argument);
  EXPECT_THROW(
      net::max_min_rates({std::numeric_limits<double>::infinity()}, paths),
      std::invalid_argument);
  EXPECT_THROW(net::max_min_rates({-1.0}, paths), std::invalid_argument);
  EXPECT_NO_THROW(net::max_min_rates({0.0}, paths));  // failed link: rate 0
}

TEST(Solver, MalformedWeightsThrowInsteadOfHanging) {
  const std::vector<double> cap{10.0};
  const std::vector<std::vector<int>> paths{{0}};
  const std::vector<double> nan_w{std::nan("")};
  EXPECT_THROW(net::max_min_rates(cap, paths, &nan_w), std::invalid_argument);
  const std::vector<double> short_w{};
  EXPECT_THROW(net::max_min_rates(cap, paths, &short_w), std::invalid_argument);
  // An all-zero-weight problem has no finite max-min allocation; before the
  // guard this spun the water-filling loop forever under -DNDEBUG.
  const std::vector<double> zero_w{0.0};
  EXPECT_THROW(net::max_min_rates(cap, paths, &zero_w), std::runtime_error);
}

TEST(Solver, ZeroCapacityLinkYieldsZeroRateNotFloor) {
  // A flow crossing a failed (zero-capacity) link gets rate exactly 0; the
  // other flow still takes the full parallel link.
  const std::vector<double> cap{0.0, 10.0};
  const std::vector<std::vector<int>> paths{{0}, {1}};
  const auto r = net::max_min_rates(cap, paths);
  EXPECT_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 10.0);
}

// Property: no link oversubscribed; every flow is bottlenecked somewhere
// (max-min optimality certificate).
TEST(Solver, CapacityRespectedAndEveryFlowBottlenecked) {
  sim::Rng rng(11);
  const int links = 40, flows = 200;
  std::vector<double> cap(links);
  for (auto& c : cap) c = rng.uniform(1.0, 20.0);
  std::vector<std::vector<int>> paths(flows);
  for (auto& p : paths) {
    const int len = 1 + static_cast<int>(rng.index(4));
    while (static_cast<int>(p.size()) < len) {
      const int l = static_cast<int>(rng.index(links));
      if (std::find(p.begin(), p.end(), l) == p.end()) p.push_back(l);
    }
  }
  const auto r = net::max_min_rates(cap, paths);

  std::vector<double> load(links, 0.0);
  for (int f = 0; f < flows; ++f)
    for (int l : paths[static_cast<std::size_t>(f)])
      load[static_cast<std::size_t>(l)] += r[static_cast<std::size_t>(f)];
  for (int l = 0; l < links; ++l)
    EXPECT_LE(load[static_cast<std::size_t>(l)],
              cap[static_cast<std::size_t>(l)] * (1.0 + 1e-6));

  // Each flow crosses at least one nearly-saturated link where it has a
  // maximal rate among that link's flows.
  for (int f = 0; f < flows; ++f) {
    bool certified = false;
    for (int l : paths[static_cast<std::size_t>(f)]) {
      const auto lu = static_cast<std::size_t>(l);
      if (load[lu] < cap[lu] * (1.0 - 1e-6)) continue;
      double max_rate = 0;
      for (int g = 0; g < flows; ++g) {
        if (std::find(paths[static_cast<std::size_t>(g)].begin(),
                      paths[static_cast<std::size_t>(g)].end(),
                      l) != paths[static_cast<std::size_t>(g)].end()) {
          max_rate = std::max(max_rate, r[static_cast<std::size_t>(g)]);
        }
      }
      if (r[static_cast<std::size_t>(f)] >= max_rate * (1.0 - 1e-6)) {
        certified = true;
        break;
      }
    }
    EXPECT_TRUE(certified) << "flow " << f << " is not max-min bottlenecked";
  }
}

// ---------------------------------------------------------------- topology --

TEST(Dragonfly, FrontierDimensions) {
  const auto t = machines::frontier_topology();
  EXPECT_EQ(t.num_groups(), 80);
  EXPECT_EQ(t.num_switches(), 74 * 32 + 6 * 16);
  EXPECT_EQ(t.num_endpoints(), 74 * 32 * 16 + 6 * 16 * 16);
}

TEST(Dragonfly, ComputeGlobalBandwidthIs270TBs) {
  const auto t = machines::frontier_topology();
  double sum = 0;
  for (const auto& l : t.links())
    if (l.kind == topo::LinkKind::Global && t.group_of_switch(l.src) < 74 &&
        t.group_of_switch(l.dst) < 74)
      sum += l.capacity;
  // Table 1: 270+270 TB/s between compute groups (one direction counted).
  EXPECT_NEAR(sum / 2.0 / 1e12, 270.1, 0.5);
}

TEST(Dragonfly, TaperIs57Percent) {
  const auto t = machines::frontier_topology();
  const double inj = t.injection_capacity_per_group(0);
  double global_cc = 0;
  for (const auto& l : t.links())
    if (l.kind == topo::LinkKind::Global && t.group_of_switch(l.src) == 0 &&
        t.group_of_switch(l.dst) < 74)
      global_cc += l.capacity;
  EXPECT_NEAR(inj / 1e12, 12.8, 0.1);       // §3.2
  EXPECT_NEAR(global_cc / 1e12, 7.3, 0.1);  // §3.2
  EXPECT_NEAR(global_cc / inj, 0.57, 0.01);
}

TEST(Dragonfly, GatewaysBelongToTheirGroups) {
  const auto t = machines::frontier_topology();
  for (int g : {0, 10, 73, 74, 79}) {
    for (int h : {1, 40, 75, 79}) {
      if (g == h) continue;
      const int gw = t.gateway_switch(g, h);
      ASSERT_GE(gw, 0) << g << "->" << h;
      EXPECT_EQ(t.group_of_switch(gw), g);
    }
  }
}

TEST(FatTree, NonBlockingCore) {
  const auto t = topo::Topology::fat_tree(8, 4, 10.0, 1e-7);
  EXPECT_EQ(t.num_endpoints(), 32);
  EXPECT_TRUE(t.is_fat_tree());
  // Core uplinks carry full leaf injection.
  for (const auto& l : t.links()) {
    if (l.kind == topo::LinkKind::Core) {
      EXPECT_DOUBLE_EQ(l.capacity, 40.0);
    }
  }
}

// ---------------------------------------------------------------- fabric ----

net::Fabric small_dragonfly(net::Routing r, bool cc = true) {
  // 8 groups x 4 switches x 4 endpoints, 1 link per group pair.
  auto t = topo::Topology::uniform_dragonfly(8, {4, 4}, 1, 25e9, 180e-9);
  net::FabricConfig cfg;
  cfg.routing = r;
  cfg.congestion_control = cc;
  cfg.nic_efficiency = 0.70;
  return net::Fabric(std::move(t), cfg);
}

TEST(Fabric, IntraSwitchPairHitsNicEfficiency) {
  auto f = small_dragonfly(net::Routing::Minimal);
  const auto rates = f.steady_rates({{0, 1}});
  EXPECT_NEAR(rates[0] / 1e9, 25.0 * 0.70, 0.01);
}

TEST(Fabric, SteadyRatesRejectsOutOfRangeEndpoints) {
  auto f = small_dragonfly(net::Routing::Adaptive);
  const int eps = f.topology().num_endpoints();
  EXPECT_THROW(f.steady_rates({{0, 1}, {0, eps}}), std::out_of_range);
  EXPECT_THROW(f.steady_rates({{-1, 0}}), std::out_of_range);
  // A rejected call leaves the fabric usable and its answers unchanged.
  const net::PairList ok{{0, eps - 1}, {1, eps - 2}, {2, 17}};
  EXPECT_EQ(f.steady_rates(ok), small_dragonfly(net::Routing::Adaptive).steady_rates(ok));
}

TEST(Fabric, MinimalPathHopCounts) {
  auto f = small_dragonfly(net::Routing::Minimal);
  // Same switch: inj + ej.
  EXPECT_EQ(f.minimal_hops(0, 1), 2);
  // Same group, different switch: + 1 local hop.
  EXPECT_EQ(f.minimal_hops(0, 5), 3);
  // Different group: inj + local + global + local + ej (worst case 5).
  EXPECT_LE(f.minimal_hops(0, 17), 5);
  EXPECT_GE(f.minimal_hops(0, 17), 3);
}

TEST(Fabric, MinimalRoutingCollapsesOnSingleGlobalLink) {
  auto f = small_dragonfly(net::Routing::Minimal);
  // All 16 endpoints of group 0 target group 1: one 25 GB/s global link.
  net::PairList pairs;
  for (int e = 0; e < 16; ++e) pairs.emplace_back(e, 16 + e);
  const auto rates = f.steady_rates(pairs);
  const double sum = std::accumulate(rates.begin(), rates.end(), 0.0);
  EXPECT_NEAR(sum / 1e9, 25.0, 0.1);  // global bundle is the bottleneck
}

TEST(Fabric, ValiantSpreadsAcrossIntermediateGroups) {
  auto fmin = small_dragonfly(net::Routing::Minimal);
  auto fval = small_dragonfly(net::Routing::Valiant);
  net::PairList pairs;
  for (int e = 0; e < 16; ++e) pairs.emplace_back(e, 16 + e);
  const auto rmin = fmin.steady_rates(pairs);
  const auto rval = fval.steady_rates(pairs);
  const double smin = std::accumulate(rmin.begin(), rmin.end(), 0.0);
  const double sval = std::accumulate(rval.begin(), rval.end(), 0.0);
  EXPECT_GT(sval, smin * 1.5);  // detours recruit other groups' links
}

TEST(Fabric, AdaptiveAtLeastAsGoodAsMinimalOnAdversarialPattern) {
  auto fmin = small_dragonfly(net::Routing::Minimal);
  auto fada = small_dragonfly(net::Routing::Adaptive);
  net::PairList pairs;
  for (int e = 0; e < 16; ++e) pairs.emplace_back(e, 16 + e);
  const auto rmin = fmin.steady_rates(pairs);
  const auto rada = fada.steady_rates(pairs);
  const double smin = std::accumulate(rmin.begin(), rmin.end(), 0.0);
  const double sada = std::accumulate(rada.begin(), rada.end(), 0.0);
  EXPECT_GE(sada, smin);
}

TEST(Fabric, FatTreePermutationIsTight) {
  auto m = machines::summit();
  auto f = m.build_fabric();
  sim::Rng rng(5);
  auto pairs = net::random_permutation(f.topology().num_endpoints(), rng);
  const auto rates = f.steady_rates(pairs);
  // Non-blocking: every pair gets the full NIC-efficiency rate.
  for (double r : rates) EXPECT_NEAR(r / 1e9, 12.5 * 0.68, 0.05);
}

TEST(Fabric, CongestionControlIsolatesVictims) {
  // Victim flow 0->1 shares switch 0 with a 14-way incast onto endpoint 2.
  auto fcc = small_dragonfly(net::Routing::Minimal, true);
  auto fnc = small_dragonfly(net::Routing::Minimal, false);
  net::PairList pairs{{0, 1}};
  std::vector<int> sources;
  for (int e = 4; e < 18; ++e) sources.push_back(e);
  for (auto pr : net::incast(sources, 2)) pairs.push_back(pr);
  const auto rcc = fcc.steady_rates(pairs);
  const auto rnc = fnc.steady_rates(pairs);
  // With CC the victim keeps its full rate despite the incast.
  EXPECT_NEAR(rcc[0] / 1e9, 17.5, 0.1);
  // Without CC, head-of-line blocking at the shared switch degrades it.
  EXPECT_LT(rnc[0], rcc[0] * 0.5);
}

TEST(Fabric, BaseLatencyGrowsWithDistance) {
  auto f = small_dragonfly(net::Routing::Minimal);
  EXPECT_LT(f.base_latency(0, 1), f.base_latency(0, 5));
  EXPECT_LT(f.base_latency(0, 5), f.base_latency(0, 17));
}

// ---------------------------------------------------------------- flowsim ---

TEST(FlowSim, SerialTransferTime) {
  sim::Engine eng;
  auto f = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, f);
  double done_at = -1;
  fs.start(0, 1, 17.5e9, [&] { done_at = eng.now(); });  // 1 s at 17.5 GB/s
  eng.run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST(FlowSim, FairSharingDelaysBothFlows) {
  sim::Engine eng;
  auto f = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, f);
  // Two flows into the same destination endpoint: ejection link shared.
  double t1 = -1, t2 = -1;
  fs.start(0, 3, 17.5e9, [&] { t1 = eng.now(); });
  fs.start(1, 3, 17.5e9, [&] { t2 = eng.now(); });
  eng.run();
  EXPECT_NEAR(t1, 2.0, 1e-6);  // both halve to 8.75 GB/s
  EXPECT_NEAR(t2, 2.0, 1e-6);
}

TEST(FlowSim, LateArrivalReschedulesEarlierFlow) {
  sim::Engine eng;
  auto f = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, f);
  double t1 = -1, t2 = -1;
  fs.start(0, 3, 17.5e9, [&] { t1 = eng.now(); });
  eng.schedule_at(0.5, [&] {
    fs.start(1, 3, 8.75e9, [&] { t2 = eng.now(); });
  });
  eng.run();
  // Flow 1 runs alone for 0.5 s (8.75 GB left), then shares: +1 s -> 1.5 s.
  EXPECT_NEAR(t1, 1.5, 1e-5);
  // Flow 2: 8.75 GB at 8.75 GB/s shared (1 s), finishing with flow 1.
  EXPECT_NEAR(t2, 1.5, 1e-5);
}

TEST(FlowSim, ManyFlowsAllComplete) {
  sim::Engine eng;
  auto f = small_dragonfly(net::Routing::Adaptive);
  net::FlowSim fs(eng, f);
  int done = 0;
  sim::Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    const int src = static_cast<int>(rng.index(128));
    int dst = static_cast<int>(rng.index(128));
    if (dst == src) dst = (dst + 1) % 128;
    fs.start(src, dst, rng.uniform(1e6, 1e9), [&] { ++done; });
  }
  eng.run();
  EXPECT_EQ(done, 64);
  EXPECT_EQ(fs.active_flows(), 0u);
}

// ---------------------------------------------------------------- machines --

TEST(Machines, FrontierTable1Aggregates) {
  const auto m = machines::frontier();
  EXPECT_EQ(m.total_nodes, 9472);
  EXPECT_NEAR(m.fp64_dgemm_peak() / 1e18, 2.0, 0.02);      // 2.0 EF
  EXPECT_NEAR(m.ddr_capacity() / PiB(1), 4.6, 0.05);       // 4.6 PiB
  EXPECT_NEAR(m.hbm_capacity() / PiB(1), 4.6, 0.05);       // 4.6 PiB
  EXPECT_NEAR(m.hbm_bandwidth() / 1e15, 123.9, 0.5);       // 123.9 PB/s
  EXPECT_NEAR(m.injection_bandwidth_per_node() / 1e9, 100, 0.1);
}

TEST(Machines, LookupByName) {
  EXPECT_TRUE(machines::by_name("frontier").has_value());
  EXPECT_TRUE(machines::by_name("SUMMIT").has_value());
  EXPECT_TRUE(machines::by_name("Aurora").has_value());
  EXPECT_FALSE(machines::by_name("el capitan").has_value());
  EXPECT_EQ(machines::by_name("Mira")->total_nodes, 49152);
}

TEST(Machines, AuroraAggregates) {
  const auto m = machines::aurora();
  EXPECT_EQ(m.total_nodes, 10624);
  EXPECT_TRUE(m.has_fabric());
  // ~2 EF headline FP64 over 63,744 GPU Max devices.
  EXPECT_NEAR(m.fp64_dgemm_peak() / 1e18, 2.0, 0.05);
  // 8 Slingshot-11 NICs per node: 8 x 25 GB/s injection.
  EXPECT_NEAR(m.injection_bandwidth_per_node() / 1e9, 200, 0.1);
  EXPECT_EQ(machines::endpoints_per_node(m), 8);
  // Topology sized to the NIC count exactly (83 x 64 x 16 endpoints).
  const auto topo = m.topology_factory();
  EXPECT_EQ(topo.num_endpoints(), m.total_nodes * 8);
}

TEST(Machines, EndpointMapping) {
  const auto m = machines::frontier();
  EXPECT_EQ(machines::endpoints_per_node(m), 4);
  EXPECT_EQ(machines::node_endpoint(m, 0, 3), 3);
  EXPECT_EQ(machines::node_endpoint(m, 100, 2), 402);
}

TEST(Machines, BaselinesHaveNoFabricButFrontierDoes) {
  EXPECT_TRUE(machines::frontier().has_fabric());
  EXPECT_TRUE(machines::summit().has_fabric());
  EXPECT_FALSE(machines::mira().has_fabric());
}

// ---------------------------------------------- fabric manager (ISSUE 7) ----

TEST(FabricManager, FailRestoreIdempotentAndBoundsChecked) {
  auto f = small_dragonfly(net::Routing::Minimal);
  EXPECT_THROW(f.fail_link(-1), std::out_of_range);
  EXPECT_THROW(f.fail_link(1 << 28), std::out_of_range);
  EXPECT_THROW(f.restore_link(-7), std::out_of_range);
  EXPECT_EQ(f.capacity_epoch(), 0u) << "a rejected call must not mutate";

  const int gl = f.topology().global_link(0, 1);
  const double base = f.effective_capacities()[static_cast<std::size_t>(gl)];
  EXPECT_TRUE(f.fail_link(gl));
  EXPECT_EQ(f.capacity_epoch(), 1u);
  EXPECT_TRUE(f.is_failed(gl));
  EXPECT_EQ(f.failed_links(), 1);
  EXPECT_EQ(f.effective_capacities()[static_cast<std::size_t>(gl)], 0.0);

  // Failing an already-failed link is a no-op: no epoch bump, nothing keyed
  // on the epoch (the FlowSim warm memo) gets spuriously invalidated.
  EXPECT_FALSE(f.fail_link(gl));
  EXPECT_EQ(f.capacity_epoch(), 1u);

  EXPECT_TRUE(f.restore_link(gl));
  EXPECT_EQ(f.capacity_epoch(), 2u);
  EXPECT_FALSE(f.is_failed(gl));
  EXPECT_EQ(f.failed_links(), 0);
  EXPECT_EQ(f.effective_capacities()[static_cast<std::size_t>(gl)], base);

  // Restoring a live link is equally a no-op.
  EXPECT_FALSE(f.restore_link(gl));
  EXPECT_EQ(f.capacity_epoch(), 2u);
}

TEST(FabricManager, CapacityOverridesComposeWithFailRestore) {
  auto f = small_dragonfly(net::Routing::Minimal);
  const int inj = f.topology().injection_link(3);
  const auto iu = static_cast<std::size_t>(inj);
  const double base = f.effective_capacities()[iu];

  EXPECT_TRUE(f.set_link_capacity(inj, 1e9));
  EXPECT_EQ(f.capacity_epoch(), 1u);
  EXPECT_EQ(f.effective_capacities()[iu], 1e9);
  EXPECT_FALSE(f.set_link_capacity(inj, 1e9)) << "same value: no-op";
  EXPECT_EQ(f.capacity_epoch(), 1u);

  // A failed link pins 0 regardless of the override; the override survives
  // the failure and re-applies on restore.
  EXPECT_TRUE(f.fail_link(inj));
  EXPECT_EQ(f.effective_capacities()[iu], 0.0);
  EXPECT_TRUE(f.set_link_capacity(inj, 2e9) == false)
      << "overriding a failed link changes nothing observable yet";
  EXPECT_TRUE(f.restore_link(inj));
  EXPECT_EQ(f.effective_capacities()[iu], 2e9);

  EXPECT_TRUE(f.clear_link_capacity(inj));
  EXPECT_EQ(f.effective_capacities()[iu], base);
  EXPECT_FALSE(f.clear_link_capacity(inj)) << "already cleared: no-op";
}

TEST(FabricManager, OverrideUpdateAfterNoOpFirstSetMaterialises) {
  // Regression: a first override equal to the current effective capacity is
  // a no-op that records the override without materialising the COW vector;
  // a later different-valued set takes the update branch and used to write
  // through the still-empty vector (out-of-bounds). A scenario sweeping a
  // link's capacity through its nominal value hits exactly this sequence.
  auto f = small_dragonfly(net::Routing::Minimal);
  const int inj = f.topology().injection_link(2);
  const auto iu = static_cast<std::size_t>(inj);
  const double base = f.effective_capacities()[iu];

  EXPECT_FALSE(f.set_link_capacity(inj, base)) << "base-valued set: no-op";
  EXPECT_EQ(f.capacity_epoch(), 0u);
  EXPECT_TRUE(f.set_link_capacity(inj, base / 2));
  EXPECT_EQ(f.effective_capacities()[iu], base / 2);
  EXPECT_EQ(f.capacity_epoch(), 1u);
  EXPECT_TRUE(f.clear_link_capacity(inj));
  EXPECT_EQ(f.effective_capacities()[iu], base);
}

TEST(FabricManager, SharedSnapshotSessionsAreIsolated) {
  auto t = topo::Topology::uniform_dragonfly(8, {4, 4}, 1, 25e9, 180e-9);
  net::FabricConfig cfg;
  cfg.routing = net::Routing::Minimal;
  auto snap = net::make_snapshot(std::move(t), cfg);
  net::Fabric a(snap);
  net::Fabric b(snap);
  ASSERT_EQ(a.snapshot().get(), b.snapshot().get());

  net::PairList pairs;
  for (int e = 0; e < 16; ++e) pairs.emplace_back(e, 16 + e);
  const auto before = b.steady_rates(pairs);

  // Session A fails the very global bundle B's traffic crosses, plus a
  // terminal link; B must observe nothing: same epoch, same capacities, and
  // bitwise-identical rates.
  const int gl = a.topology().global_link(0, 1);
  ASSERT_TRUE(a.fail_link(gl));
  ASSERT_TRUE(a.fail_link(a.topology().ejection_link(17)));
  EXPECT_EQ(b.capacity_epoch(), 0u);
  EXPECT_FALSE(b.is_failed(gl));
  EXPECT_GT(b.effective_capacities()[static_cast<std::size_t>(gl)], 0.0);
  const auto after = b.steady_rates(pairs);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]) << "sibling overlay leaked into flow " << i;

  // A itself sees the failure (detour exists: rates drop but stay nonzero
  // through the intermediate-group reroute).
  const auto rerouted = a.steady_rates(pairs);
  double sum = 0;
  for (double r : rerouted) sum += r;
  EXPECT_GT(sum, 0.0);
  // And the clean copy-on-write view: B still shares the snapshot's base
  // vector (no private copy until B's own first mutation).
  EXPECT_EQ(&b.effective_capacities(), &snap->base_capacities());
  EXPECT_NE(&a.effective_capacities(), &snap->base_capacities());
}

// `net.route_cache.overlay_reroute` counts exactly the minimal routes that
// detour because the overlay failed their direct Global bundle: never on a
// clean overlay, never for Local or terminal failures, and never when the
// detour search finds no live route and throws.
TEST(FabricManager, OverlayRerouteCountsFailedGlobalDetours) {
  net::FabricConfig cfg;
  cfg.routing = net::Routing::Minimal;
  net::Fabric f(topo::Topology::uniform_dragonfly(3, {4, 4}, 1, 25e9, 180e-9),
                cfg);
  const auto& t = f.topology();
  const int eps = t.num_endpoints();
  const auto reroutes = [] {
    return obs::metrics().counter("net.route_cache.overlay_reroute").value();
  };
  // Routes every ordered pair; returns how many cross a failed direct bundle.
  sim::Rng rng(5);
  const auto route_all = [&] {
    std::uint64_t broken = 0;
    for (int a = 0; a < eps; ++a)
      for (int b = 0; b < eps; ++b) {
        if (a == b) continue;
        const int ga = t.group_of_endpoint(a);
        const int gb = t.group_of_endpoint(b);
        if (ga != gb && f.is_failed(t.global_link(ga, gb))) ++broken;
        f.route(a, b, rng);
      }
    return broken;
  };

  auto r0 = reroutes();
  EXPECT_EQ(route_all(), 0u);
  EXPECT_EQ(reroutes(), r0) << "clean overlay";

  ASSERT_TRUE(f.fail_link(t.switch_link(0, 1)));
  ASSERT_TRUE(f.fail_link(t.injection_link(0)));
  ASSERT_TRUE(f.fail_link(t.ejection_link(eps - 1)));
  EXPECT_EQ(route_all(), 0u);
  EXPECT_EQ(reroutes(), r0) << "Local and terminal failures";

  const int gl01 = t.global_link(0, 1);
  ASSERT_TRUE(f.fail_link(gl01));
  r0 = reroutes();
  const std::uint64_t broken = route_all();
  EXPECT_EQ(broken, 16u * 16u);  // every group-0 -> group-1 pair
  EXPECT_EQ(reroutes() - r0, broken);

  // With 0->1 and 0->2 both down, group 0 has no live route to group 1.
  const int gl02 = t.global_link(0, 2);
  ASSERT_TRUE(f.fail_link(gl02));
  const int a = 0, b = 16;
  ASSERT_EQ(t.group_of_endpoint(b), 1);
  r0 = reroutes();
  EXPECT_THROW(f.route(a, b, rng), std::runtime_error);
  EXPECT_EQ(reroutes(), r0) << "a failed detour search is not a reroute";
  // Restoring 0->2 reopens the detour through group 2: one more reroute.
  ASSERT_TRUE(f.restore_link(gl02));
  const auto p = f.route(a, b, rng);
  EXPECT_EQ(reroutes() - r0, 1u);
  EXPECT_EQ(std::count(p.begin(), p.end(), gl01), 0);
  EXPECT_EQ(std::count(p.begin(), p.end(), gl02), 1);
}

}  // namespace
