// Parameterized property tests: invariants swept over configuration spaces
// with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "apps/catalog.hpp"
#include "core/xscale.hpp"
#include "net/solver.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace xscale;

// ----------------------------------------------------- solver properties ----

struct SolverCase {
  std::uint64_t seed;
  int links;
  int flows;
  int max_path;
};

class SolverProperty : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverProperty, MaxMinInvariantsHold) {
  const auto c = GetParam();
  sim::Rng rng(c.seed);
  std::vector<double> cap(static_cast<std::size_t>(c.links));
  for (auto& x : cap) x = rng.uniform(0.5, 50.0);
  std::vector<std::vector<int>> paths(static_cast<std::size_t>(c.flows));
  for (auto& p : paths) {
    const int len = 1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(c.max_path)));
    std::set<int> s;
    while (static_cast<int>(s.size()) < len)
      s.insert(static_cast<int>(rng.index(static_cast<std::uint64_t>(c.links))));
    p.assign(s.begin(), s.end());
  }
  const auto r = net::max_min_rates(cap, paths);

  // 1. All rates strictly positive and finite.
  for (double x : r) {
    EXPECT_GT(x, 0.0);
    EXPECT_TRUE(std::isfinite(x));
  }
  // 2. No link oversubscribed.
  std::vector<double> load(cap.size(), 0.0);
  for (std::size_t f = 0; f < paths.size(); ++f)
    for (int l : paths[f]) load[static_cast<std::size_t>(l)] += r[f];
  for (std::size_t l = 0; l < cap.size(); ++l)
    EXPECT_LE(load[l], cap[l] * (1 + 1e-6));
  // 3. Pareto: each flow crosses a saturated link (cannot be raised without
  //    lowering someone).
  for (std::size_t f = 0; f < paths.size(); ++f) {
    bool saturated = false;
    for (int l : paths[f])
      if (load[static_cast<std::size_t>(l)] >= cap[static_cast<std::size_t>(l)] * (1 - 1e-6))
        saturated = true;
    EXPECT_TRUE(saturated) << "flow " << f;
  }

  // 4. The component-parallel solver satisfies the same invariants and is
  //    bit-identical to the global serial solve at every thread count.
  const int prev_threads = sim::thread_count();
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    const auto rc = net::max_min_rates_components(cap, paths);
    ASSERT_EQ(rc.size(), r.size());
    for (std::size_t f = 0; f < r.size(); ++f)
      EXPECT_EQ(rc[f], r[f]) << "flow " << f << " at threads=" << threads;
  }
  sim::set_thread_count(prev_threads);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverProperty,
                         ::testing::Values(SolverCase{1, 8, 20, 3},
                                           SolverCase{2, 64, 200, 5},
                                           SolverCase{3, 256, 1000, 6},
                                           SolverCase{4, 16, 500, 2},
                                           SolverCase{5, 512, 100, 8}));

// The component solver renumbers the links a problem touches to compact ids
// before solving. On a Frontier-sized capacity vector (160,016 links) whose
// paths touch only a few dozen high link ids, its rates must equal the
// reference oracle's bit for bit, and its stats must equal the reference's:
// the whole-problem stats for one component, the per-component sums for
// many.
struct SparseSolveCase {
  const char* name;
  int components;
};

class SparseHighIdSolve : public ::testing::TestWithParam<SparseSolveCase> {};

TEST_P(SparseHighIdSolve, ComponentsMatchReferenceBitwise) {
  const auto c = GetParam();
  constexpr int kLinks = 160016;
  constexpr int kLinksPerComponent = 12;
  sim::Rng rng(2024);
  std::vector<double> cap(kLinks);
  for (auto& x : cap) x = rng.uniform(0.5, 50.0);
  // Component k owns the link block just below kLinks - k * 12; every path
  // holds the block's top link, so each block is one component. Flows of
  // different components interleave, so the compact ids do too.
  std::vector<std::vector<int>> paths;
  std::vector<std::vector<int>> flows_of(static_cast<std::size_t>(c.components));
  for (int f = 0; f < 40; ++f) {
    for (int k = 0; k < c.components; ++k) {
      const int top = kLinks - 1 - k * kLinksPerComponent;
      const int len = 1 + static_cast<int>(rng.index(4));
      std::set<int> s{top};
      while (static_cast<int>(s.size()) < len)
        s.insert(top - static_cast<int>(rng.index(kLinksPerComponent)));
      flows_of[static_cast<std::size_t>(k)].push_back(static_cast<int>(paths.size()));
      paths.emplace_back(s.rbegin(), s.rend());
    }
  }
  std::vector<double> weights(paths.size());
  for (auto& w : weights) w = rng.uniform(0.5, 4.0);

  net::SolveStats ref_stats;
  const auto ref = net::max_min_rates_reference(cap, paths, &weights, &ref_stats);
  net::SolveStats want = ref_stats;
  if (c.components > 1) {
    want = net::SolveStats{};
    for (const auto& flows : flows_of) {
      std::vector<std::vector<int>> sub_paths;
      std::vector<double> sub_w;
      for (int f : flows) {
        sub_paths.push_back(paths[static_cast<std::size_t>(f)]);
        sub_w.push_back(weights[static_cast<std::size_t>(f)]);
      }
      net::SolveStats st;
      net::max_min_rates_reference(cap, sub_paths, &sub_w, &st);
      want.iterations += st.iterations;
      want.bottleneck_links += st.bottleneck_links;
    }
  }

  const int prev_threads = sim::thread_count();
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    net::SolveStats got;
    const auto rc = net::max_min_rates_components(cap, paths, &weights, &got);
    ASSERT_EQ(rc.size(), ref.size());
    for (std::size_t f = 0; f < ref.size(); ++f)
      EXPECT_EQ(rc[f], ref[f]) << c.name << " flow " << f << " threads=" << threads;
    EXPECT_EQ(got.iterations, want.iterations) << c.name;
    EXPECT_EQ(got.bottleneck_links, want.bottleneck_links) << c.name;
  }
  sim::set_thread_count(prev_threads);
}

INSTANTIATE_TEST_SUITE_P(
    FrontierSized, SparseHighIdSolve,
    ::testing::Values(SparseSolveCase{"one_component", 1},
                      SparseSolveCase{"many_components", 24}),
    [](const ::testing::TestParamInfo<SparseSolveCase>& info) {
      return std::string(info.param.name);
    });

// Freeze-prefix replay in the CSR core: a solve that re-freezes the levels an
// earlier solve recorded equals the cold solve bit for bit — rates,
// iterations and levels — after one arrival (the core probes where to stop)
// and after one removal (levels below the removed flow's). Half the seeds
// draw capacities from three values, so shares tie bitwise and many links
// fire in one sweep.
TEST(FreezePrefixReplay, ArrivalAndRemovalReplayEqualsCold) {
  constexpr int kLinks = 24;
  constexpr int kFlows = 40;
  std::int64_t replayed = 0, stopped_early = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    std::vector<double> cap(kLinks);
    for (auto& x : cap)
      x = seed % 2 ? 10.0 * static_cast<double>(1 + rng.index(3))
                   : rng.uniform(1.0, 40.0);
    auto random_path = [&] {
      std::set<int> links;
      const int len = 1 + static_cast<int>(rng.index(4));
      while (static_cast<int>(links.size()) < len)
        links.insert(static_cast<int>(rng.index(kLinks)));
      std::vector<int> p(links.begin(), links.end());
      std::swap(p[0], p[rng.index(p.size())]);
      return p;
    };
    std::vector<std::vector<int>> paths;
    for (int f = 0; f < kFlows; ++f) paths.push_back(random_path());

    // Cold solve over `ps` through the core; returns rates, fills levels.
    net::SolveScratch scratch;
    auto solve = [&](const std::vector<std::vector<int>>& ps,
                     const net::FreezePrefix* prefix, std::vector<int>& levels,
                     net::SolveStats& st) {
      net::CompactPaths problem;
      problem.assign(cap, ps);
      std::vector<double> rates(ps.size());
      levels.assign(ps.size(), 0);
      net::max_min_rates_csr(problem, nullptr, rates.data(), &st, scratch,
                             prefix, levels.data());
      return rates;
    };
    auto expect_cold = [&](const std::vector<std::vector<int>>& ps,
                           const net::FreezePrefix& prefix) {
      std::vector<int> cold_levels, got_levels;
      net::SolveStats cold_st, got_st, ref_st;
      const auto cold = solve(ps, nullptr, cold_levels, cold_st);
      const auto got = solve(ps, &prefix, got_levels, got_st);
      const auto ref = net::max_min_rates_reference(cap, ps, nullptr, &ref_st);
      for (std::size_t f = 0; f < ps.size(); ++f) {
        EXPECT_EQ(got[f], ref[f]) << "flow " << f;
        EXPECT_EQ(cold[f], ref[f]) << "flow " << f;
      }
      EXPECT_EQ(got_st.iterations, ref_st.iterations);
      EXPECT_EQ(got_levels, cold_levels);
      return got_st.replayed_flows;
    };

    std::vector<int> base_levels;
    net::SolveStats base_st;
    const auto base = solve(paths, nullptr, base_levels, base_st);

    // One arrival: every recorded level is offered.
    auto grown = paths;
    grown.push_back(random_path());
    std::vector<int> level(base_levels);
    level.push_back(0);
    std::vector<double> rate(base);
    rate.push_back(0.0);
    const auto arrival_replayed = expect_cold(
        grown, {level.data(), rate.data(),
                static_cast<int>(base_st.iterations), kFlows});
    replayed += arrival_replayed;
    if (arrival_replayed < kFlows) ++stopped_early;

    // One removal: the levels below the removed flow's.
    const auto r = static_cast<std::size_t>(rng.index(kFlows));
    const int cut = base_levels[r];
    auto shrunk = paths;
    shrunk.erase(shrunk.begin() + static_cast<std::ptrdiff_t>(r));
    level = base_levels;
    level.erase(level.begin() + static_cast<std::ptrdiff_t>(r));
    rate = base;
    rate.erase(rate.begin() + static_cast<std::ptrdiff_t>(r));
    for (int& l : level)
      if (l >= cut) l = 0;
    replayed += expect_cold(shrunk, {level.data(), rate.data(), cut - 1, -1});
  }
  // Both outcomes of the arrival probe occurred.
  EXPECT_GT(replayed, 0);
  EXPECT_GT(stopped_early, 0);
}

// -------------------------------------------------- dragonfly properties ----

class DragonflySize : public ::testing::TestWithParam<int> {};

TEST_P(DragonflySize, StructuralInvariants) {
  const int groups = GetParam();
  const auto t = topo::Topology::uniform_dragonfly(groups, {8, 8}, 2, 25e9, 1e-7);
  EXPECT_EQ(t.num_groups(), groups);
  EXPECT_EQ(t.num_switches(), groups * 8);
  EXPECT_EQ(t.num_endpoints(), groups * 64);
  // Every ordered group pair has a global link terminating at a gateway of
  // the source group, and capacities are symmetric.
  for (int g = 0; g < groups; ++g) {
    for (int h = 0; h < groups; ++h) {
      if (g == h) continue;
      const int l = t.global_link(g, h);
      ASSERT_GE(l, 0);
      EXPECT_EQ(t.group_of_switch(t.link(l).src), g);
      EXPECT_EQ(t.group_of_switch(t.link(l).dst), h);
      EXPECT_DOUBLE_EQ(t.link(l).capacity,
                       t.link(t.global_link(h, g)).capacity);
    }
    EXPECT_EQ(static_cast<int>(t.peer_groups(g).size()), groups - 1);
  }
}

TEST_P(DragonflySize, EveryEndpointPairRoutable) {
  const int groups = GetParam();
  net::Fabric f(topo::Topology::uniform_dragonfly(groups, {4, 4}, 1, 25e9, 1e-7),
                net::FabricConfig{});
  sim::Rng rng(17);
  const int eps = f.topology().num_endpoints();
  for (int trial = 0; trial < 50; ++trial) {
    const int a = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    int b = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    if (b == a) b = (b + 1) % eps;
    const auto path = f.route(a, b, rng);
    ASSERT_GE(path.size(), 2u);
    // Path is connected: consecutive links share a vertex.
    EXPECT_EQ(f.topology().link(path.front()).src, eps > a ? a : a);
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      EXPECT_EQ(f.topology().link(path[i]).dst,
                f.topology().link(path[i + 1]).src);
    EXPECT_EQ(f.topology().link(path.back()).dst, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DragonflySize, ::testing::Values(3, 5, 9, 16, 33));

// ------------------------------------------------------ STREAM properties ---

class StreamKernelCase
    : public ::testing::TestWithParam<std::tuple<int, hw::NpsMode>> {};

TEST_P(StreamKernelCase, NonTemporalNeverSlower) {
  const auto [ki, nps] = GetParam();
  const auto cpu = hw::trento();
  const auto& k = hw::kCpuStreamKernels[static_cast<std::size_t>(ki)];
  const double nt = cpu.ddr.stream_bandwidth(k, false, nps);
  const double t = cpu.ddr.stream_bandwidth(k, true, nps);
  EXPECT_GE(nt, t);
  EXPECT_LE(nt, cpu.ddr.peak_bandwidth());
  EXPECT_GT(t, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllNps, StreamKernelCase,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(hw::NpsMode::NPS1, hw::NpsMode::NPS2,
                                         hw::NpsMode::NPS4)));

// --------------------------------------------------------- GEMM properties --

class GemmPrecision : public ::testing::TestWithParam<hw::Precision> {};

TEST_P(GemmPrecision, BoundedAndSaturating) {
  const auto p = GetParam();
  const auto g = hw::mi250x_gcd();
  double prev = 0;
  for (int n = 128; n <= 32768; n *= 2) {
    const double a = g.gemm_achieved(p, n);
    EXPECT_GT(a, 0.0);
    EXPECT_LE(a, g.matrix_peak(p));
    EXPECT_GE(a, prev);
    prev = a;
  }
  // Plateau within 5% of the calibrated asymptote.
  EXPECT_NEAR(g.gemm_achieved(p, 32768) / (g.matrix_peak(p) * g.gemm_asymptotic_eff(p)),
              1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, GemmPrecision,
                         ::testing::Values(hw::Precision::FP64, hw::Precision::FP32,
                                           hw::Precision::FP16));

// ------------------------------------------------------------ PFL sweep -----

class PflSplit : public ::testing::TestWithParam<double> {};

TEST_P(PflSplit, PartitionIsExactAndOrdered) {
  const double size = GetParam();
  const storage::Orion o;
  const auto s = o.pfl_split(size);
  EXPECT_DOUBLE_EQ(s.total(), size);          // nothing lost or duplicated
  EXPECT_LE(s.metadata, units::KiB(256));     // DoM bound
  EXPECT_LE(s.performance, units::MiB(8) - units::KiB(256));
  EXPECT_GE(s.metadata, 0.0);
  EXPECT_GE(s.performance, 0.0);
  EXPECT_GE(s.capacity, 0.0);
  // The capacity tier is used only when the performance extent is full.
  if (s.capacity > 0) {
    EXPECT_DOUBLE_EQ(s.performance, units::MiB(8) - units::KiB(256));
  }
}

INSTANTIATE_TEST_SUITE_P(FileSizes, PflSplit,
                         ::testing::Values(1.0, units::KiB(4), units::KiB(256),
                                           units::KiB(257), units::MiB(1),
                                           units::MiB(8), units::MiB(9),
                                           units::GiB(4), units::TB(1)));

// ----------------------------------------------------- scheduler stress -----

struct SchedCase {
  std::uint64_t seed;
  int total_nodes;
  int jobs;
};

class SchedulerStress : public ::testing::TestWithParam<SchedCase> {};

TEST_P(SchedulerStress, NoOverlapNoLeakAllServed) {
  const auto c = GetParam();
  sched::Scheduler s(c.total_nodes, 128, c.seed);
  sim::Engine eng;
  sim::Rng rng(c.seed);
  std::vector<sched::JobRequest> jobs;
  for (int i = 0; i < c.jobs; ++i) {
    const int n = 1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(c.total_nodes)));
    jobs.push_back({n, rng.uniform(1.0, 100.0),
                    static_cast<sched::Placement>(rng.index(4))});
  }
  const auto rec = s.run_workload(eng, jobs);
  ASSERT_EQ(rec.size(), jobs.size());
  for (const auto& r : rec) {
    EXPECT_GE(r.start_time, 0.0);  // every job eventually runs
    EXPECT_EQ(static_cast<int>(r.nodes.size()), r.request.nodes);
  }
  // No node used by two jobs at overlapping times.
  for (std::size_t i = 0; i < rec.size(); ++i) {
    for (std::size_t j = i + 1; j < rec.size(); ++j) {
      const bool overlap_time = rec[i].start_time < rec[j].end_time - 1e-9 &&
                                rec[j].start_time < rec[i].end_time - 1e-9;
      if (!overlap_time) continue;
      std::set<int> a(rec[i].nodes.begin(), rec[i].nodes.end());
      for (int n : rec[j].nodes) EXPECT_EQ(a.count(n), 0u) << i << "," << j;
    }
  }
  EXPECT_EQ(s.free_nodes(), c.total_nodes);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SchedulerStress,
                         ::testing::Values(SchedCase{1, 256, 30},
                                           SchedCase{2, 512, 60},
                                           SchedCase{3, 1024, 40},
                                           SchedCase{4, 128, 80}));

// -------------------------------------------------------- app catalog sweep -

class AppSweep : public ::testing::TestWithParam<int> {};

TEST_P(AppSweep, WeakScalingAndMachineOrdering) {
  const auto all = apps::all_apps();
  const auto& spec = all[static_cast<std::size_t>(GetParam())];
  const auto frontier = machines::frontier();
  // FOM grows near-linearly with node count on Frontier.
  const auto a = apps::run_app(spec, frontier, nullptr, 32);
  const auto b = apps::run_app(spec, frontier, nullptr, 512);
  EXPECT_GT(b.fom, a.fom * 8.0) << spec.name;
  EXPECT_LE(b.fom, a.fom * 16.5) << spec.name;
  // A Frontier node outperforms a Titan node on every app.
  const auto f1 = apps::run_app(spec, frontier, nullptr, 1);
  const auto t1 = apps::run_app(spec, machines::titan(), nullptr, 1);
  EXPECT_GT(f1.fom, t1.fom) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppSweep, ::testing::Range(0, 13));

// ----------------------------------------------------- GPCNeT PPN sweep -----

class GpcnetPpn : public ::testing::TestWithParam<int> {};

TEST_P(GpcnetPpn, ImpactNeverBelowOneAndGrowsWithPpn) {
  machines::Machine m = machines::frontier();
  machines::FrontierFabricSpec spec;
  spec.compute_groups = 4;
  spec.storage_groups = 0;
  spec.management_groups = 0;
  m.topology_factory = [spec] { return machines::frontier_topology(spec); };
  m.total_nodes = 512;
  m.compute_nodes = 512;
  auto fabric = m.build_fabric();
  mpi::GpcnetConfig cfg;
  cfg.nodes = 512;
  cfg.ppn = GetParam();
  const auto r = mpi::run_gpcnet(m, fabric, cfg);
  for (double i : r.impact) {
    EXPECT_GE(i, 0.99);
    if (cfg.ppn <= 8) {
      EXPECT_LE(i, 1.1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ppn, GpcnetPpn, ::testing::Values(4, 8, 16, 32));

// ---------------------------------------------------- routing properties ---
// Invariants of minimal routing: a route is non-empty and duplicate-free,
// starts at the source's injection link and ends at the destination's
// ejection link, and a minimal dragonfly route crosses at most 3
// switch-to-switch links of which at most 1 is global. A failed global bundle
// is detoured around and restore brings the original route back; a terminal
// failure never changes a route.

class RoutingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RoutingProperty, MinimalInvariantsHoldUnderFailures) {
  const int groups = GetParam();
  net::FabricConfig cfg;
  cfg.routing = net::Routing::Minimal;
  net::Fabric fabric(
      topo::Topology::uniform_dragonfly(groups, {4, 4}, 1, 25e9, 180e-9), cfg);
  const auto& t = fabric.topology();
  const int eps = t.num_endpoints();
  sim::Rng rng(99);

  const auto check_pair = [&](int a, int b) {
    const auto p = fabric.route(a, b, rng);
    ASSERT_FALSE(p.empty()) << "src=" << a << " dst=" << b;
    std::set<int> uniq(p.begin(), p.end());
    EXPECT_EQ(uniq.size(), p.size()) << "duplicate link in route";
    int switch_hops = 0, global_hops = 0;
    for (int l : p) {
      const auto kind = t.link(l).kind;
      if (kind == topo::LinkKind::Local || kind == topo::LinkKind::Global)
        ++switch_hops;
      if (kind == topo::LinkKind::Global) ++global_hops;
    }
    EXPECT_LE(switch_hops, 3);
    EXPECT_LE(global_hops, 1);
    EXPECT_EQ(t.link(p.front()).src, a);
    EXPECT_EQ(t.link(p.back()).dst, b);
  };

  // Deterministic sample plus a random sample of endpoint pairs.
  sim::Rng pick(7);
  for (int trial = 0; trial < 120; ++trial) {
    int a, b;
    if (trial < 40) {  // same-switch and same-group pairs, then cross-group
      a = trial % eps;
      b = (a + 1 + trial / 2) % eps;
    } else {
      a = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
      b = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
    }
    if (a == b) continue;
    check_pair(a, b);
  }

  // Fail the global link on a cross-group minimal route: the route detours
  // around it while it is down and returns to the original after restore.
  // Needs a third group to detour through.
  if (groups < 3) return;
  const int a = 0, b = eps - 1;
  const auto before = fabric.route(a, b, rng);
  int global_id = -1;
  for (int l : before)
    if (t.link(l).kind == topo::LinkKind::Global) global_id = l;
  ASSERT_GE(global_id, 0);
  fabric.fail_link(global_id);
  const auto during = fabric.route(a, b, rng);
  EXPECT_NE(during, before);  // detours around the failed bundle
  for (int l : during) EXPECT_NE(l, global_id);
  fabric.restore_link(global_id);
  EXPECT_EQ(fabric.route(a, b, rng), before);

  // Terminal failures zero the link's capacity but never change where
  // packets are steered.
  const int eject_b = t.ejection_link(b);
  ASSERT_EQ(t.link(eject_b).kind, topo::LinkKind::Ejection);
  fabric.fail_link(eject_b);
  EXPECT_EQ(fabric.route(a, b, rng), before);
  fabric.restore_link(eject_b);
  EXPECT_EQ(fabric.route(a, b, rng), before);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoutingProperty, ::testing::Values(2, 4, 9, 17));

// Routing contract across topology families: the universal invariants —
// non-empty, duplicate-free, correct terminal links, and terminal-link
// failures never changing a route — hold on every family; the hop-structure
// bound is family-specific (a dragonfly minimal route crosses at most 3
// switch links of which at most 1 is global; a fat-tree route crosses exactly
// 0 or 2 Core links and nothing else; a full-coverage rotor route crosses at
// most 1 Global link and no Core/Local ones).

struct RouteFamily {
  const char* name;
  topo::Topology (*make)();
};

topo::Topology route_family_frontier() {
  // Mixed group sizes: compute groups and smaller service groups.
  return machines::frontier().topology_factory();
}
topo::Topology route_family_dragonfly() {
  return topo::Topology::uniform_dragonfly(6, {4, 4}, 1, 25e9, 180e-9);
}
topo::Topology route_family_fat_tree() {
  return topo::Topology::fat_tree(12, 8, 25e9, 180e-9);
}
topo::Topology route_family_os_fat_tree() {
  return topo::Topology::oversubscribed_fat_tree(12, 8, 4.0, 25e9, 180e-9);
}
topo::Topology route_family_rotor() {
  // Full matching coverage (n-1) so every switch pair has a direct link.
  return topo::Topology::rotor(10, 8, 9, 250e-6, 0.9, 25e9, 180e-9);
}

class RoutingFamilyProperty : public ::testing::TestWithParam<RouteFamily> {};

TEST_P(RoutingFamilyProperty, UniversalInvariantsAndFamilyHopBounds) {
  const RouteFamily fam = GetParam();
  net::FabricConfig cfg;
  cfg.routing = net::Routing::Minimal;
  net::Fabric fabric(fam.make(), cfg);
  const auto& t = fabric.topology();
  const int eps = t.num_endpoints();
  sim::Rng rng(99);

  const auto check_pair = [&](int a, int b) {
    const auto p = fabric.route(a, b, rng);
    ASSERT_FALSE(p.empty()) << fam.name << " src=" << a << " dst=" << b;
    std::set<int> uniq(p.begin(), p.end());
    EXPECT_EQ(uniq.size(), p.size()) << fam.name << ": duplicate link";
    int local = 0, global = 0, core = 0;
    for (int l : p) {
      switch (t.link(l).kind) {
        case topo::LinkKind::Local: ++local; break;
        case topo::LinkKind::Global: ++global; break;
        case topo::LinkKind::Core: ++core; break;
        default: break;
      }
    }
    if (t.is_fat_tree()) {
      EXPECT_EQ(local, 0) << fam.name;
      EXPECT_EQ(global, 0) << fam.name;
      EXPECT_TRUE(core == 0 || core == 2) << fam.name << " core=" << core;
      EXPECT_EQ(p.size(), static_cast<std::size_t>(2 + core)) << fam.name;
    } else if (t.is_rotor()) {
      EXPECT_EQ(local, 0) << fam.name;
      EXPECT_EQ(core, 0) << fam.name;
      EXPECT_LE(global, 1) << fam.name;
      EXPECT_EQ(p.size(), static_cast<std::size_t>(2 + global)) << fam.name;
    } else {
      EXPECT_LE(local + global, 3) << fam.name;
      EXPECT_LE(global, 1) << fam.name;
      EXPECT_EQ(core, 0) << fam.name;
    }
    EXPECT_EQ(t.link(p.front()).src, a);
    EXPECT_EQ(t.link(p.back()).dst, b);
  };

  // Deterministic same-switch/neighbour pairs, then a random cross sample.
  sim::Rng pick(7);
  for (int trial = 0; trial < 120; ++trial) {
    int a, b;
    if (trial < 40) {
      a = trial % eps;
      b = (a + 1 + trial / 2) % eps;
    } else {
      a = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
      b = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
    }
    if (a == b) continue;
    check_pair(a, b);
  }

  // Terminal failures zero capacity but never steer packets elsewhere, on
  // every family: neither the failed pair nor a sweep of neighbour pairs
  // changes route.
  const auto sweep = [&] {
    std::vector<std::vector<int>> routes;
    for (int trial = 0; trial < 40; ++trial) {
      const int p = trial % eps;
      const int q = (p + 1 + trial / 2) % eps;
      if (p != q) routes.push_back(fabric.route(p, q, rng));
    }
    return routes;
  };
  const int a = 0, b = eps - 1;
  const auto before = fabric.route(a, b, rng);
  const auto sweep_before = sweep();
  const int eject_b = t.ejection_link(b);
  ASSERT_EQ(t.link(eject_b).kind, topo::LinkKind::Ejection);
  fabric.fail_link(eject_b);
  EXPECT_EQ(fabric.route(a, b, rng), before) << fam.name;
  EXPECT_EQ(sweep(), sweep_before) << fam.name;
  fabric.restore_link(eject_b);
  EXPECT_EQ(fabric.route(a, b, rng), before) << fam.name;
}

// The dense routing index (switch_link / global_link / gateway_switch /
// link_kind) agrees with the link list: every Local and Core link is found
// by its endpoints, every Global link by its groups with its source as the
// gateway, and sampled switch pairs and every group pair without a link
// answer -1.
TEST_P(RoutingFamilyProperty, DenseIndexMatchesLinkList) {
  const RouteFamily fam = GetParam();
  const topo::Topology t = fam.make();
  std::set<std::pair<int, int>> switch_pairs;
  std::set<std::pair<int, int>> group_pairs;
  for (const auto& l : t.links()) {
    ASSERT_EQ(t.link_kind(l.id), l.kind) << fam.name << " link " << l.id;
    switch (l.kind) {
      case topo::LinkKind::Local:
      case topo::LinkKind::Core:
        ASSERT_EQ(t.switch_link(l.src, l.dst), l.id) << fam.name;
        switch_pairs.emplace(l.src, l.dst);
        break;
      case topo::LinkKind::Global: {
        const int g = t.group_of_switch(l.src);
        const int h = t.group_of_switch(l.dst);
        ASSERT_EQ(t.global_link(g, h), l.id) << fam.name;
        ASSERT_EQ(t.gateway_switch(g, h), l.src) << fam.name;
        group_pairs.emplace(g, h);
        break;
      }
      case topo::LinkKind::Injection:
        ASSERT_EQ(t.injection_link(l.src), l.id) << fam.name;
        break;
      case topo::LinkKind::Ejection:
        ASSERT_EQ(t.ejection_link(l.dst), l.id) << fam.name;
        break;
    }
  }
  for (int g = 0; g < t.num_groups(); ++g)
    for (int h = 0; h < t.num_groups(); ++h)
      if (!group_pairs.count({g, h})) {
        EXPECT_EQ(t.global_link(g, h), -1) << fam.name << " " << g << "->" << h;
        EXPECT_EQ(t.gateway_switch(g, h), -1) << fam.name << " " << g << "->" << h;
      }
  // Random switch pairs (mostly cross-group on a dragonfly), then pairs
  // inside one group, then degenerate ids.
  const int ns = t.num_switches();
  sim::Rng rng(11);
  for (int trial = 0; trial < 20000; ++trial) {
    const int u = static_cast<int>(rng.index(static_cast<std::uint64_t>(ns)));
    int v = static_cast<int>(rng.index(static_cast<std::uint64_t>(ns)));
    if (trial % 2 == 1) {
      const auto [first, n] = t.group_switch_range(t.group_of_switch(u));
      v = first + static_cast<int>(rng.index(static_cast<std::uint64_t>(n)));
    }
    if (!switch_pairs.count({u, v})) {
      ASSERT_EQ(t.switch_link(u, v), -1) << fam.name << " " << u << "->" << v;
    }
  }
  EXPECT_EQ(t.switch_link(0, 0), -1) << fam.name;
  EXPECT_EQ(t.switch_link(-1, 0), -1) << fam.name;
  EXPECT_EQ(t.switch_link(0, ns), -1) << fam.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, RoutingFamilyProperty,
    ::testing::Values(RouteFamily{"frontier", route_family_frontier},
                      RouteFamily{"dragonfly", route_family_dragonfly},
                      RouteFamily{"fat_tree", route_family_fat_tree},
                      RouteFamily{"os_fat_tree", route_family_os_fat_tree},
                      RouteFamily{"rotor", route_family_rotor}),
    [](const ::testing::TestParamInfo<RouteFamily>& info) {
      return std::string(info.param.name);
    });

}  // namespace
