// Tests for topologies, the max-min solver, routing, and the fabric model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "machines/machine.hpp"
#include "net/fabric.hpp"
#include "net/flowsim.hpp"
#include "net/patterns.hpp"
#include "net/solver.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
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

// Degenerate capacities against the oracle: all-zero links, 1e-300
// capacities (shares near the bottom of the normal range), a mix of both
// with ordinary links, and one-link paths among longer ones. The CSR core
// must equal the reference bit for bit, rates and solver stats alike, with
// and without weights.
TEST(Solver, DegenerateCapacitiesMatchReferenceBitwise) {
  const int links = 12;
  sim::Rng rng(31);
  std::vector<std::vector<int>> paths;
  std::vector<double> weights;
  for (int f = 0; f < 48; ++f) {
    std::vector<int> p;
    const int len = 1 + f % 3;  // a third of the flows cross a single link
    while (static_cast<int>(p.size()) < len) {
      const int l = static_cast<int>(rng.index(links));
      if (std::find(p.begin(), p.end(), l) == p.end()) p.push_back(l);
    }
    paths.push_back(p);
    weights.push_back(1.0 + static_cast<double>(f % 4));
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  const std::vector<std::vector<double>> profiles{
      std::vector<double>(links, 0.0),
      std::vector<double>(links, 1e-300),
      {0.0, 1e-300, 25e9, 0.0, 3e-300, 1e-300, 25e9, 12.5e9, 0.0, 1e-300,
       7e-300, 25e9},
  };
  net::SolveScratch scratch;
  const std::vector<double>* unweighted = nullptr;
  const std::vector<double>* weighted = &weights;
  for (const auto& cap : profiles) {
    net::CompactPaths problem;
    problem.assign(cap, paths);
    for (const std::vector<double>* w : {unweighted, weighted}) {
      std::vector<double> rates(paths.size());
      net::SolveStats cs, rs;
      net::max_min_rates_csr(problem, w ? w->data() : nullptr, rates.data(),
                             &cs, scratch);
      const auto ref = net::max_min_rates_reference(cap, paths, w, &rs);
      ASSERT_EQ(ref.size(), rates.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(bits(rates[i]), bits(ref[i]))
            << "flow " << i << " cap[0]=" << cap[0] << " weighted=" << !!w;
      EXPECT_EQ(cs.iterations, rs.iterations);
      EXPECT_EQ(cs.bottleneck_links, rs.bottleneck_links);
    }
  }
}

// CompactPaths is the one place a solve's links are numbered: ids 0, 1, ...
// in first-seen order across paths, each capacity read when its link is
// first seen, a virtual link next in line, and a new problem numbered from
// 0 with no mapping left over, also after a build abandoned halfway.
TEST(CompactPaths, NumbersFirstSeenAndForgetsOnBegin) {
  std::vector<double> cap{10, 11, 12, 13, 14, 15, 16, 17};
  net::CompactPaths problem;
  problem.begin(cap.size());
  for (int l : {5, 2}) problem.push_link(l, cap.data());
  problem.end_path();
  cap[5] = 99;  // link 5 is known: its capacity is not read again
  for (int l : {2, 7, 5}) problem.push_link(l, cap.data());
  problem.push_virtual(3.5);
  problem.end_path();
  problem.push_link(0, cap.data());
  problem.end_path();
  EXPECT_EQ(problem.paths().link_ids, (std::vector<int>{0, 1, 1, 2, 0, 3, 4}));
  EXPECT_EQ(problem.paths().offsets, (std::vector<int>{0, 2, 6, 7}));
  EXPECT_EQ(problem.capacities(), (std::vector<double>{15, 12, 17, 3.5, 10}));
  EXPECT_EQ(problem.original_ids(), (std::vector<int>{5, 2, 7, -1, 0}));

  // Abandoned halfway: links 3 and 4 get ids, the path is never sealed.
  problem.begin(cap.size());
  problem.push_link(3, cap.data());
  problem.push_link(4, cap.data());
  problem.begin(cap.size());
  for (int l : {4, 5, 3}) problem.push_link(l, cap.data());
  problem.end_path();
  EXPECT_EQ(problem.paths().link_ids, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(problem.paths().offsets, (std::vector<int>{0, 3}));
  EXPECT_EQ(problem.capacities(), (std::vector<double>{14, 99, 13}));
  EXPECT_EQ(problem.original_ids(), (std::vector<int>{4, 5, 3}));
}

// ------------------------------------------- cached-share water-filling --
// The CSR core recomputes only what a level touched (DESIGN.md §9). Each
// test below pins it to the reference, which sweeps every active link at
// every level, on an input class where that shortcut has something to get
// wrong: rates bitwise, per-flow levels and solver stats alike.

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

// Solves through the CSR core (into a scratch shared across calls, so one
// problem's leftovers meet the next) and through the reference. Returns
// the reference's stats; throws if both throw the same exception type.
net::SolveStats expect_csr_equals_reference(
    const std::vector<double>& cap, const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights, const std::string& label) {
  static net::SolveScratch scratch;
  net::CompactPaths problem;
  problem.assign(cap, paths);
  std::vector<double> rates(paths.size());
  std::vector<int> levels(paths.size(), 0), ref_levels;
  net::SolveStats cs, rs;
  bool csr_threw = false, ref_threw = false;
  std::vector<double> ref;
  try {
    net::max_min_rates_csr(problem, weights ? weights->data() : nullptr,
                           rates.data(), &cs, scratch, nullptr, levels.data());
  } catch (const std::runtime_error&) {
    csr_threw = true;
  }
  try {
    ref = net::max_min_rates_reference(cap, paths, weights, &rs, &ref_levels);
  } catch (const std::runtime_error&) {
    ref_threw = true;
  }
  EXPECT_EQ(csr_threw, ref_threw) << label;
  if (csr_threw || ref_threw) throw std::runtime_error(label);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    EXPECT_EQ(bits_of(rates[f]), bits_of(ref[f])) << label << " flow " << f;
    EXPECT_EQ(levels[f], ref_levels[f]) << label << " flow " << f;
  }
  EXPECT_EQ(cs.iterations, rs.iterations) << label;
  EXPECT_EQ(cs.bottleneck_links, rs.bottleneck_links) << label;
  EXPECT_EQ(cs.replayed_flows, 0) << label;
  return rs;
}

// `count` random paths of 1..max_len distinct links in [0, links).
std::vector<std::vector<int>> random_paths(sim::Rng& rng, int count,
                                           int links, int max_len) {
  std::vector<std::vector<int>> paths(static_cast<std::size_t>(count));
  for (auto& p : paths) {
    const int len = 1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(max_len)));
    while (static_cast<int>(p.size()) < len) {
      const int l = static_cast<int>(rng.index(static_cast<std::uint64_t>(links)));
      if (std::find(p.begin(), p.end(), l) == p.end()) p.push_back(l);
    }
  }
  return paths;
}

// Thousands of levels over thousands of links: the tree of share minima
// is several levels deep, positions die and get compacted many times.
TEST(Solver, DeepSolveMatchesReferenceBitwise) {
  sim::Rng rng(22);
  const int links = 6000;
  std::vector<double> cap(links);
  for (auto& c : cap) c = rng.uniform(1.0, 100.0);
  const auto paths = random_paths(rng, 10000, links, 4);
  std::vector<double> w(paths.size());
  for (auto& x : w) x = rng.uniform(0.5, 4.0);
  EXPECT_GE(expect_csr_equals_reference(cap, paths, nullptr, "unweighted").iterations,
            3000);
  EXPECT_GE(expect_csr_equals_reference(cap, paths, &w, "weighted").iterations,
            3000);
}

// A link whose active weight falls into (0, 1e-12] dies at the end of the
// level, though it still has an unfrozen crosser: later levels neither test
// it nor subtract from it.
TEST(Solver, LinkWeightFallingBelowDeadThresholdMatchesReference) {
  // Link 1 carries weights 1 and 1e-13; once flow 0 freezes at link 0 it is
  // left with (1 + 1e-13) - 1, inside the dead band, and flow 1 is frozen
  // by link 2 at level 2 without link 1's residual limiting it.
  const double left = (1.0 + 1e-13) - 1.0;
  ASSERT_GT(left, 0.0);
  ASSERT_LE(left, 1e-12);
  const std::vector<double> cap{10.0, 100.0, 50.0};
  const std::vector<std::vector<int>> paths{{0, 1}, {1, 2}, {0}, {2}};
  const std::vector<double> w{1.0, 1e-13, 1.0, 1.0};
  const auto st = expect_csr_equals_reference(cap, paths, &w, "fixed");
  EXPECT_EQ(st.iterations, 2);

  // Random mixes: every third flow weighs 1e-13..9e-13 and follows the path
  // of the flow before it (which freezes it) plus one more link, whose
  // weight drops into the dead band once its ordinary crossers freeze.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    sim::Rng rng(seed);
    const int links = 10;
    std::vector<double> c(links);
    for (auto& x : c) x = rng.uniform(1.0, 20.0);
    auto ps = random_paths(rng, 24, links, 3);
    std::vector<double> ws(ps.size());
    for (std::size_t f = 0; f < ps.size(); ++f) {
      ws[f] = static_cast<double>(1 + rng.index(3));
      if (f % 3 != 2) continue;
      ws[f] = 1e-13 * static_cast<double>(1 + rng.index(9));
      ps[f] = ps[f - 1];
      const int extra = static_cast<int>(rng.index(links));
      if (std::find(ps[f].begin(), ps[f].end(), extra) == ps[f].end())
        ps[f].push_back(extra);
    }
    expect_csr_equals_reference(c, ps, &ws, "seed " + std::to_string(seed));
  }
}

// Links whose active weight is <= 1e-12 before any level ran: they take
// part in level 1 and are dead from its end on. Weight-0 flows on links no
// weighted flow crosses give such links with active weight exactly 0.
TEST(Solver, LinksDeadFromTheStartMatchReference) {
  // Link 1 is crossed by one flow of weight 1e-13 only: live in level 1,
  // where its share (10) is not the minimum (5), and dead from then on. Had
  // it lived on, its share would undercut link 2's (100) at level 2 and
  // freeze flow 1 at 10 * 1e-13. Links 3..12 carry one flow each and freeze
  // last, so level 1 touches one position of thirteen and re-caches it
  // alone: only the check of every position finds link 1.
  std::vector<double> cap{5.0, 1e-12, 100.0};
  std::vector<std::vector<int>> paths{{0}, {1, 2}, {2}};
  std::vector<double> w{1.0, 1e-13, 1.0};
  for (int l = 3; l < 13; ++l) {
    cap.push_back(100.0 * l);
    paths.push_back({l});
    w.push_back(1.0);
  }
  EXPECT_EQ(expect_csr_equals_reference(cap, paths, &w, "fixed").iterations, 12);

  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    const int links = 12, dead_links = 4;
    std::vector<double> cap(links + dead_links);
    for (auto& x : cap) x = rng.uniform(1.0, 20.0);
    auto paths = random_paths(rng, 30, links, 3);
    std::vector<double> w(paths.size(), 1.0);
    // Every fifth flow weighs 0: it follows the path of the flow before it,
    // which freezes it, and also crosses a link only weight-0 flows cross.
    for (std::size_t f = 5; f < paths.size(); f += 5) {
      w[f] = 0.0;
      paths[f] = paths[f - 1];
      paths[f].push_back(links + static_cast<int>(rng.index(dead_links)));
    }
    const auto st =
        expect_csr_equals_reference(cap, paths, &w, "seed " + std::to_string(seed));
    EXPECT_GE(st.iterations, 2);
  }
}

// A weight-0 flow whose every link dies before anything froze it has no
// finite share left: the core throws as the reference does, whether the
// dead links were compacted away (the first problem: one level touches
// half the positions) or kept in place (the second: later levels touch
// one position of ten).
TEST(Solver, FlowLeftOnDeadLinksThrowsLikeReference) {
  const std::vector<double> w2{1.0, 0.0};
  EXPECT_THROW(expect_csr_equals_reference({10.0, 10.0}, {{0}, {1}}, &w2, "two"),
               std::runtime_error);
  std::vector<double> cap{1.0, 10.0};
  std::vector<std::vector<int>> paths{{0}, {1}};
  std::vector<double> w{1.0, 0.0};
  for (int l = 2; l < 10; ++l) {
    cap.push_back(static_cast<double>(10 * l));
    paths.push_back({l});
    w.push_back(1.0);
  }
  EXPECT_THROW(expect_csr_equals_reference(cap, paths, &w, "ten"),
               std::runtime_error);
}

// Freeze-prefix replay with one arrival (unit weights): the replayed solve
// equals the cold one and the reference — rates, levels and iterations —
// whether the probe stops the replay early or not. Replay leaves emptied
// links behind, which the first cold level must retire.
TEST(Solver, FreezePrefixReplayWithArrivalMatchesReference) {
  int replayed_some = 0, stopped_early = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    const int links = 16, flows = 30;
    std::vector<double> cap(links);
    for (auto& x : cap) x = 10.0 * static_cast<double>(1 + rng.index(4));
    auto paths = random_paths(rng, flows, links, 3);
    net::SolveScratch scratch;
    auto solve = [&](const std::vector<std::vector<int>>& ps,
                     const net::FreezePrefix* prefix, std::vector<int>& levels,
                     net::SolveStats& st) {
      std::vector<double> rates(ps.size());
      levels.assign(ps.size(), 0);
      net::CompactPaths problem;
      problem.assign(cap, ps);
      net::max_min_rates_csr(problem, nullptr, rates.data(), &st, scratch,
                             prefix, levels.data());
      return rates;
    };
    std::vector<int> base_levels;
    net::SolveStats base_st;
    const auto base = solve(paths, nullptr, base_levels, base_st);

    paths.push_back(random_paths(rng, 1, links, 3)[0]);
    std::vector<int> level(base_levels);
    level.push_back(0);
    std::vector<double> rate(base);
    rate.push_back(0.0);
    const net::FreezePrefix prefix{level.data(), rate.data(),
                                   static_cast<int>(base_st.iterations), flows};
    std::vector<int> got_levels, ref_levels;
    net::SolveStats got_st, ref_st;
    const auto got = solve(paths, &prefix, got_levels, got_st);
    const auto ref = net::max_min_rates_reference(cap, paths, nullptr, &ref_st,
                                                  &ref_levels);
    for (std::size_t f = 0; f < paths.size(); ++f)
      EXPECT_EQ(bits_of(got[f]), bits_of(ref[f])) << "flow " << f;
    EXPECT_EQ(got_levels, ref_levels);
    EXPECT_EQ(got_st.iterations, ref_st.iterations);
    if (got_st.replayed_flows > 0) ++replayed_some;
    if (got_st.replayed_flows < flows) ++stopped_early;
  }
  EXPECT_GT(replayed_some, 0);
  EXPECT_GT(stopped_early, 0);
}

// Whether a full sweep, as the reference runs it, ever fires a link whose
// share at the start of the level was above the level's minimum: a link an
// earlier firing of the same level pushed to <= the cutoff by rounding.
// The CSR core can fire such a link only through its re-queue path.
bool full_sweep_fires_a_non_candidate(const std::vector<double>& cap,
                                      const std::vector<std::vector<int>>& paths,
                                      const std::vector<double>& w) {
  const auto share = [](double r, double a) {
    return a > 0.0 ? std::max(0.0, r) / a : std::numeric_limits<double>::infinity();
  };
  std::vector<double> residual = cap, aw(cap.size(), 0.0);
  std::vector<std::vector<int>> flows_on(cap.size());
  std::vector<int> active;
  for (std::size_t f = 0; f < paths.size(); ++f)
    for (int l : paths[f]) {
      const auto lu = static_cast<std::size_t>(l);
      if (flows_on[lu].empty()) active.push_back(l);
      aw[lu] += w[f];
      flows_on[lu].push_back(static_cast<int>(f));
    }
  std::vector<char> frozen(paths.size(), 0);
  std::size_t remaining = paths.size();
  while (remaining > 0) {
    std::vector<double> start(active.size());
    double m = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < active.size(); ++i) {
      const auto lu = static_cast<std::size_t>(active[i]);
      start[i] = share(residual[lu], aw[lu]);
      m = std::min(m, start[i]);
    }
    if (!std::isfinite(m)) return false;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const auto lu = static_cast<std::size_t>(active[i]);
      if (aw[lu] <= 0.0 || share(residual[lu], aw[lu]) > m) continue;
      if (start[i] > m) return true;
      for (int f : flows_on[lu]) {
        const auto fu = static_cast<std::size_t>(f);
        if (frozen[fu]) continue;
        frozen[fu] = 1;
        --remaining;
        for (int l : paths[fu]) {
          residual[static_cast<std::size_t>(l)] -= m * w[fu];
          aw[static_cast<std::size_t>(l)] -= w[fu];
        }
      }
    }
    std::erase_if(active, [&](int l) { return aw[static_cast<std::size_t>(l)] <= 1e-12; });
  }
  return false;
}

// The re-queue test's multiply shortcut must not rule out a link whose
// rounded share ties the cutoff. Link 0 fires at 31/5 = 6.2; its flow 0
// also crosses link 1, whose share before the level is
// nextafter(124)/20 > 6.2. After the subtraction link 1 holds
// r = 117.80000000000001 over 19 flows: r / 19 rounds to 6.2 exactly,
// though r exceeds fl(6.2 * 19) = 117.8. So link 1 fires in level 1, and
// the solve takes one level.
TEST(Solver, RequeueTestKeepsAShareThatRoundsToTheCutoff) {
  const double cap1 = std::nextafter(124.0, 200.0);
  const double cutoff = 31.0 / 5.0;
  ASSERT_GT(cap1 / 20.0, cutoff);
  ASSERT_EQ((cap1 - cutoff) / 19.0, cutoff);
  ASSERT_GT(cap1 - cutoff, cutoff * 19.0);
  std::vector<std::vector<int>> paths{{0, 1}};
  for (int i = 0; i < 4; ++i) paths.push_back({0});
  for (int i = 0; i < 19; ++i) paths.push_back({1});
  const auto st = expect_csr_equals_reference({31.0, cap1}, paths, nullptr, "tie");
  EXPECT_EQ(st.iterations, 1);
  EXPECT_EQ(st.bottleneck_links, 2);
}

// The re-queue path: a seeded search over small problems with near-tied
// shares and non-dyadic weights finds levels in which a link past the
// cursor, no candidate at the start of the level, comes to test <= the
// cutoff after an earlier firing and fires. The core must match there too.
TEST(Solver, LinkRequeuedMidSweepMatchesReference) {
  const std::vector<double> caps{0.3, 0.6, 0.9, 0.7, 1.1};
  const std::vector<double> weights{0.1, 0.2, 0.3, 0.7, 1.0};
  int found = 0;
  for (std::uint64_t seed = 1; seed <= 20000 && found < 20; ++seed) {
    sim::Rng rng(seed);
    const int links = 6;
    std::vector<double> cap(links);
    for (auto& x : cap) x = caps[rng.index(caps.size())];
    const auto paths = random_paths(rng, 12, links, 3);
    std::vector<double> w(paths.size());
    for (auto& x : w) x = weights[rng.index(weights.size())];
    if (!full_sweep_fires_a_non_candidate(cap, paths, w)) continue;
    ++found;
    expect_csr_equals_reference(cap, paths, &w, "seed " + std::to_string(seed));
  }
  std::printf("re-queue cases found: %d\n", found);
  EXPECT_GT(found, 0);
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

TEST(Fabric, SteadyRatesRejectsMismatchedWeightsAndCaps) {
  auto f = small_dragonfly(net::Routing::Adaptive);
  const net::PairList pairs{{0, 17}, {1, 18}, {2, 19}};
  const std::vector<double> short_v{1.0, 1.0};
  const std::vector<double> long_v{1.0, 1.0, 1.0, 1.0};
  // A short `rate_caps` used to be read past its end; a long one was
  // silently truncated.
  for (const auto* v : {&short_v, &long_v}) {
    EXPECT_THROW(f.steady_rates(pairs, v), std::invalid_argument);
    EXPECT_THROW(f.steady_rates(pairs, nullptr, nullptr, v),
                 std::invalid_argument);
  }
  // The rejected calls leave the fabric's answers unchanged.
  const std::vector<double> caps{0.0, 5e9, 0.0};
  EXPECT_EQ(f.steady_rates(pairs, nullptr, nullptr, &caps),
            small_dragonfly(net::Routing::Adaptive)
                .steady_rates(pairs, nullptr, nullptr, &caps));
}

// Every per-pair entry point rejects an endpoint outside the topology before
// it routes (they used to index the endpoint tables out of bounds).
TEST(Fabric, RouteRejectsOutOfRangeEndpoints) {
  auto f = small_dragonfly(net::Routing::Adaptive);
  const int eps = f.topology().num_endpoints();
  sim::Rng rng(3);
  EXPECT_THROW(f.route(0, eps, rng), std::out_of_range);
  EXPECT_THROW(f.route(-1, 5, rng), std::out_of_range);
  // The rejected calls consumed no randomness.
  sim::Rng fresh(3);
  EXPECT_EQ(f.route(0, 17, rng), f.route(0, 17, fresh));
}

TEST(Fabric, RouteIntoRejectsOutOfRangeEndpoints) {
  auto f = small_dragonfly(net::Routing::Minimal);
  const int eps = f.topology().num_endpoints();
  sim::Rng rng(3);
  std::vector<int> out{7, 7};
  EXPECT_THROW(f.route_into(eps, 0, rng, nullptr, out), std::out_of_range);
  EXPECT_THROW(f.route_into(0, -2, rng, nullptr, out), std::out_of_range);
  EXPECT_EQ(out, (std::vector<int>{7, 7})) << "a rejected call writes nothing";
}

TEST(Fabric, BaseLatencyRejectsOutOfRangeEndpoints) {
  auto f = small_dragonfly(net::Routing::Minimal);
  const int eps = f.topology().num_endpoints();
  EXPECT_THROW(f.base_latency(0, eps), std::out_of_range);
  EXPECT_THROW(f.base_latency(-1, 0), std::out_of_range);
  EXPECT_GT(f.base_latency(0, eps - 1), 0.0);
}

TEST(Fabric, MinimalHopsRejectsOutOfRangeEndpoints) {
  auto f = small_dragonfly(net::Routing::Minimal);
  const int eps = f.topology().num_endpoints();
  EXPECT_THROW(f.minimal_hops(eps + 3, 0), std::out_of_range);
  EXPECT_THROW(f.minimal_hops(0, -1), std::out_of_range);
  EXPECT_EQ(f.minimal_hops(0, 1), 2);
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

// Head-of-line blocking as it read before steady_rates went compact: over
// every topology link and switch, on fabric-id paths. The oracle for the
// touched-links-only pass.
void hol_reference(const net::Fabric& f,
                   const std::vector<std::vector<int>>& paths,
                   std::vector<double>& rates) {
  const auto& topo = f.topology();
  const auto& cap = f.effective_capacities();
  std::vector<int> inj_count(topo.links().size(), 0);
  for (const auto& p : paths) ++inj_count[static_cast<std::size_t>(p.front())];
  std::vector<double> demand(topo.links().size(), 0.0);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto inj = static_cast<std::size_t>(paths[i].front());
    const double desire = cap[inj] / std::max(1, inj_count[inj]);
    for (int l : paths[i]) demand[static_cast<std::size_t>(l)] += desire;
  }
  std::vector<double> switch_factor(
      static_cast<std::size_t>(topo.num_switches()), 1.0);
  for (const auto& l : topo.links()) {
    if (l.src >= topo.num_switches()) continue;
    const auto lu = static_cast<std::size_t>(l.id);
    if (demand[lu] > cap[lu]) {
      auto& sf = switch_factor[static_cast<std::size_t>(l.src)];
      sf = std::min(sf, cap[lu] / demand[lu]);
    }
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    double factor = 1.0;
    for (int l : paths[i]) {
      const int src = topo.link(l).src;
      if (src < topo.num_switches())
        factor = std::min(factor, switch_factor[static_cast<std::size_t>(src)]);
    }
    rates[i] *= factor;
  }
}

// What steady_rates must return for the paths it routed: the reference
// water-filling over the fabric's capacities, rate caps appended as virtual
// links, then head-of-line blocking when congestion control is off.
std::vector<double> steady_rates_reference(
    const net::Fabric& f, const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights, const std::vector<double>* rate_caps) {
  std::vector<double> cap = f.effective_capacities();
  auto capped = paths;
  for (std::size_t i = 0; rate_caps != nullptr && i < capped.size(); ++i) {
    if ((*rate_caps)[i] <= 0) continue;
    capped[i].push_back(static_cast<int>(cap.size()));
    cap.push_back((*rate_caps)[i]);
  }
  auto rates = net::max_min_rates_reference(cap, capped, weights);
  if (!f.config().congestion_control) hol_reference(f, paths, rates);
  return rates;
}

TEST(Fabric, SteadyRatesMatchesReferenceBitwise) {
  struct Case {
    const char* name;
    std::function<topo::Topology()> topology;
    net::Routing routing;
  };
  const auto dragonfly = [] {
    return topo::Topology::uniform_dragonfly(8, {4, 4}, 1, 25e9, 180e-9);
  };
  const std::vector<Case> cases = {
      {"dragonfly-minimal", dragonfly, net::Routing::Minimal},
      {"dragonfly-valiant", dragonfly, net::Routing::Valiant},
      {"dragonfly-adaptive", dragonfly, net::Routing::Adaptive},
      {"os-fat-tree",
       [] {
         return topo::Topology::oversubscribed_fat_tree(8, 8, 4.0, 25e9,
                                                        180e-9);
       },
       net::Routing::Adaptive},
      {"rotor",
       [] {
         return topo::Topology::rotor(8, 8, 7, 250e-6, 0.9, 25e9, 180e-9);
       },
       net::Routing::Adaptive},
  };
  int samples = 0;
  for (const Case& c : cases) {
    for (const bool cc : {true, false}) {
      for (const bool degraded : {false, true}) {
        net::FabricConfig cfg;
        cfg.routing = c.routing;
        cfg.congestion_control = cc;
        net::Fabric f(c.topology(), cfg);
        const auto& topo = f.topology();
        const int eps = topo.num_endpoints();
        if (degraded) {
          // Fail the first Global link, halve the first Local one and
          // zero one terminal link.
          for (const auto& l : topo.links())
            if (l.kind == topo::LinkKind::Global) {
              f.fail_link(l.id);
              break;
            }
          for (const auto& l : topo.links())
            if (l.kind == topo::LinkKind::Local) {
              f.set_link_capacity(l.id, f.effective_capacities()[
                  static_cast<std::size_t>(l.id)] / 2);
              break;
            }
          f.set_link_capacity(topo.links().front().id, 0.0);
        }
        sim::Rng rng(static_cast<std::uint64_t>(samples) + 11);
        // A dense permutation (one component on these fabrics) and a
        // sparse sample of same-switch pairs: every such pair is its own
        // component, so the multi-component split runs.
        std::vector<net::PairList> pair_sets = {
            net::random_permutation(eps, rng), {}};
        for (int e = 0; e + 1 < eps; e += 2 * (eps / topo.num_switches()))
          if (topo.endpoint_switch(e) == topo.endpoint_switch(e + 1))
            pair_sets[1].emplace_back(e, e + 1);
        pair_sets[1].emplace_back(0, eps - 1);
        ASSERT_GE(pair_sets[1].size(), 3u) << c.name;
        for (const auto& pairs : pair_sets) {
          std::vector<double> weights, caps;
          for (std::size_t i = 0; i < pairs.size(); ++i) {
            weights.push_back(static_cast<double>(1 + rng.index(4)));
            caps.push_back(rng.bernoulli(0.5) ? 0.0 : 1e9 * (1 + rng.index(30)));
          }
          for (int mode = 0; mode < 4; ++mode) {
            const auto* w = (mode & 1) ? &weights : nullptr;
            const auto* rc = (mode & 2) ? &caps : nullptr;
            std::vector<std::vector<int>> paths;
            const auto rates = f.steady_rates(pairs, w, &paths, rc);
            ASSERT_EQ(paths.size(), pairs.size());
            const auto ref = steady_rates_reference(f, paths, w, rc);
            ASSERT_EQ(rates.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i)
              ASSERT_EQ(std::bit_cast<std::uint64_t>(rates[i]),
                        std::bit_cast<std::uint64_t>(ref[i]))
                  << c.name << " cc=" << cc << " degraded=" << degraded
                  << " mode=" << mode << " flow " << i << ": " << rates[i]
                  << " vs " << ref[i];
            // Without paths_out the call answers the same bits.
            const auto again = f.steady_rates(pairs, w, nullptr, rc);
            for (std::size_t i = 0; i < ref.size(); ++i)
              ASSERT_EQ(std::bit_cast<std::uint64_t>(again[i]),
                        std::bit_cast<std::uint64_t>(rates[i]))
                  << c.name << " flow " << i;
            ++samples;
          }
        }
      }
    }
  }
  EXPECT_EQ(samples, 5 * 2 * 2 * 2 * 4);
}

// steady_rates validates the capacities it solves over, not the fabric's:
// a bad capacity on a crossed link throws, one on a link no path crosses is
// never read. The public solver adapters still check the whole vector.
TEST(Fabric, SteadyRatesValidatesTheLinksItSolves) {
  auto f = small_dragonfly(net::Routing::Minimal);
  const net::PairList pairs{{0, 1}, {2, 3}};  // same-switch: inj + ej
  std::vector<std::vector<int>> paths;
  const auto clean = f.steady_rates(pairs, nullptr, &paths);
  const int crossed = paths[0][0];
  int untouched = -1;
  for (const auto& l : f.topology().links())
    if (l.kind == topo::LinkKind::Global) {
      untouched = l.id;
      break;
    }
  ASSERT_GE(untouched, 0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, -1.0, inf}) {
    f.set_link_capacity(crossed, bad);
    EXPECT_THROW(f.steady_rates(pairs), std::invalid_argument) << bad;
    f.clear_link_capacity(crossed);
    f.set_link_capacity(untouched, bad);
    EXPECT_EQ(f.steady_rates(pairs), clean) << bad;
    EXPECT_THROW(net::max_min_rates_components(f.effective_capacities(), paths),
                 std::invalid_argument)
        << bad;
    f.clear_link_capacity(untouched);
  }
  // A bad rate cap is a capacity the call solves over, too.
  for (const double bad : {nan, inf}) {
    const std::vector<double> caps{bad, 0.0};
    EXPECT_THROW(f.steady_rates(pairs, nullptr, nullptr, &caps),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(f.steady_rates(pairs), clean);
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

// A batch holding one bad id applies nothing: it used to write the pairs
// before the bad one and throw without bumping the epoch, so consumers keyed
// on the epoch (FlowSim's freeze ledger and share summary) went stale.
TEST(FabricManager, BatchedOverrideWithBadIdAppliesNothing) {
  auto f = small_dragonfly(net::Routing::Minimal);
  const int ej = f.topology().ejection_link(0);
  const auto n_links = static_cast<int>(f.topology().links().size());
  const std::vector<double> before = f.effective_capacities();
  EXPECT_THROW(f.set_link_capacities({{ej, 1.0}, {-5, 2.0}}),
               std::out_of_range);
  EXPECT_THROW(f.set_link_capacities({{ej, 1.0}, {n_links, 2.0}}),
               std::out_of_range);
  EXPECT_EQ(f.effective_capacities(), before);
  EXPECT_TRUE(f.overlay().capacity_overrides().empty());
  EXPECT_EQ(f.capacity_epoch(), 0u);
  // The valid pair alone still applies, with one epoch bump.
  EXPECT_TRUE(f.set_link_capacities({{ej, 1.0}}));
  EXPECT_EQ(f.effective_capacities()[static_cast<std::size_t>(ej)], 1.0);
  EXPECT_EQ(f.capacity_epoch(), 1u);
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
