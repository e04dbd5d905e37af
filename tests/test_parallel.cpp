// Tests for the deterministic parallel execution layer (sim/parallel.hpp)
// and the differential contract it must uphold: every parallelized hot path
// — FlowSim solves, Monte Carlo resiliency, GPCNeT pattern generation —
// produces byte-identical results, metrics snapshots, and trace exports at
// XSCALE_THREADS ∈ {1, 2, 8}.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "machines/machine.hpp"
#include "mpi/gpcnet.hpp"
#include "net/fabric.hpp"
#include "net/flowsim.hpp"
#include "net/patterns.hpp"
#include "net/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resil/jobsim.hpp"
#include "resil/resiliency.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"

namespace {

using namespace xscale;

// Restores the configured thread count after a test that sweeps it.
struct ThreadCountGuard {
  ~ThreadCountGuard() { sim::set_thread_count(1); }
};

// ------------------------------------------------------------ pool basics --

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 5}) {
    sim::set_thread_count(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{1000}, std::size_t{4097}}) {
      for (std::size_t grain : {std::size_t{1}, std::size_t{64},
                                std::size_t{5000}}) {
        std::vector<std::atomic<int>> hits(n);
        sim::parallel_for(n, grain, [&](std::size_t b, std::size_t e) {
          ASSERT_LE(b, e);
          ASSERT_LE(e, n);
          for (std::size_t i = b; i < e; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads
                                       << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount) {
  ThreadCountGuard guard;
  auto collect = [](int threads) {
    sim::set_thread_count(threads);
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    sim::parallel_for(1003, 100, [&](std::size_t b, std::size_t e) {
      std::lock_guard<std::mutex> lk(m);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto c1 = collect(1);
  const auto c4 = collect(4);
  EXPECT_EQ(c1, c4);
  ASSERT_EQ(c1.size(), 11u);  // ceil(1003/100)
  EXPECT_EQ(c1.back(), (std::pair<std::size_t, std::size_t>{1000, 1003}));
}

TEST(ThreadPool, OrderedReduceIsBitIdenticalToSerial) {
  ThreadCountGuard guard;
  // A sum of doubles is NOT associative; the ordered combine must reproduce
  // the serial chunked sum exactly.
  std::vector<double> xs(10001);
  sim::Rng rng(42);
  for (double& x : xs) x = rng.uniform(-1e9, 1e9) * 1e-7;

  auto chunked_sum = [&] {
    return sim::parallel_reduce(
        xs.size(), 128, 0.0,
        [&](std::size_t b, std::size_t e) {
          double s = 0;
          for (std::size_t i = b; i < e; ++i) s += xs[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  sim::set_thread_count(1);
  const double serial = chunked_sum();
  for (int threads : {2, 8}) {
    sim::set_thread_count(threads);
    EXPECT_EQ(serial, chunked_sum()) << "threads=" << threads;
  }
}

TEST(ThreadPool, ParallelEmitConcatenatesInChunkOrder) {
  ThreadCountGuard guard;
  auto emit = [] {
    return sim::parallel_emit<int>(100, 7, [](std::size_t i, std::vector<int>& out) {
      // Variable-length emission: i items of value i.
      for (std::size_t k = 0; k < i % 3; ++k) out.push_back(static_cast<int>(i));
    });
  };
  sim::set_thread_count(1);
  const auto serial = emit();
  sim::set_thread_count(8);
  EXPECT_EQ(serial, emit());
}

// A large incast through the CSR core: one firing link freezing 2,050
// flows over 4,101 links. The last 50 flows ride private links whose
// residuals that freeze debits, so their level-2 rates expose any wrong or
// misordered subtraction. Must be bit-identical to the reference at every
// thread count.
TEST(ThreadPool, SolverLargeIncastMatchesReferenceAcrossThreads) {
  ThreadCountGuard guard;
  const std::size_t incast = 2050;
  const std::size_t extras = 50;
  const std::size_t num_links = 1 + 2 * incast;  // 4101
  std::vector<double> caps(num_links, 25e9);
  caps[0] = 10e9;  // shared bottleneck: fires first, freezes all incast flows
  std::vector<std::vector<int>> paths;
  for (std::size_t f = 0; f < incast; ++f)
    paths.push_back({0, static_cast<int>(1 + 2 * f), static_cast<int>(2 + 2 * f)});
  for (std::size_t g = 0; g < extras; ++g)
    paths.push_back({static_cast<int>(1 + 2 * g)});  // shares a private link
  sim::set_thread_count(1);
  const auto oracle = net::max_min_rates_reference(caps, paths);
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    const auto got = net::max_min_rates(caps, paths);
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t f = 0; f < got.size(); ++f)
      EXPECT_EQ(got[f], oracle[f]) << "threads=" << threads << " flow=" << f;
  }
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadCountGuard guard;
  sim::set_thread_count(4);
  std::vector<std::atomic<int>> hits(64);
  sim::parallel_for(8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t outer = b; outer < e; ++outer) {
      sim::parallel_for(8, 2, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t inner = ib; inner < ie; ++inner)
          hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    sim::set_thread_count(threads);
    EXPECT_THROW(
        sim::parallel_for(100, 1,
                          [&](std::size_t b, std::size_t) {
                            if (b == 57) throw std::runtime_error("chunk 57");
                          }),
        std::runtime_error);
    // The pool must still be usable afterwards.
    std::atomic<int> ran{0};
    sim::parallel_for(10, 1, [&](std::size_t, std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(ThreadPool, ThreadCountKnobs) {
  ThreadCountGuard guard;
  sim::set_thread_count(3);
  EXPECT_EQ(sim::thread_count(), 3);
  EXPECT_EQ(sim::global_pool().threads(), 3);
  EXPECT_THROW(sim::set_thread_count(0), std::invalid_argument);
}

// ----------------------------------------- thread-safe metrics instruments --

TEST(ShardedStats, SingleThreadMatchesOnlineStatsBitForBit) {
  sim::OnlineStats ref;
  obs::ShardedStats sharded;
  sim::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    ref.add(x);
    sharded.add(x);
  }
  const sim::OnlineStats merged = sharded.merged();
  EXPECT_EQ(ref.count(), merged.count());
  EXPECT_EQ(ref.mean(), merged.mean());
  EXPECT_EQ(ref.variance(), merged.variance());
  EXPECT_EQ(ref.min(), merged.min());
  EXPECT_EQ(ref.max(), merged.max());
}

TEST(ShardedStats, ConcurrentAddsLoseNothing) {
  ThreadCountGuard guard;
  sim::set_thread_count(8);
  obs::ShardedStats s;
  obs::Counter c;
  constexpr int kPerChunk = 1000;
  sim::parallel_for(64, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      for (int k = 0; k < kPerChunk; ++k) {
        s.add(1.0);
        c.inc();
      }
    }
  });
  EXPECT_EQ(s.count(), 64u * kPerChunk);
  EXPECT_EQ(s.merged().mean(), 1.0);
  EXPECT_EQ(c.value(), 64u * kPerChunk);
}

TEST(OnlineStats, MergeOfDisjointShardsMatchesCombinedMoments) {
  sim::OnlineStats a, b, all;
  sim::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    (i < 250 ? a : b).add(x);
    all.add(x);
  }
  sim::OnlineStats m = a;
  m.merge(b);
  EXPECT_EQ(m.count(), all.count());
  EXPECT_NEAR(m.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(m.variance(), all.variance(), 1e-12);
  EXPECT_EQ(m.min(), all.min());
  EXPECT_EQ(m.max(), all.max());
  // Merging an empty accumulator must be an exact no-op.
  sim::OnlineStats before = m;
  m.merge(sim::OnlineStats{});
  EXPECT_EQ(before.mean(), m.mean());
  EXPECT_EQ(before.count(), m.count());
}

// ------------------------------------------------- solver component variant --

TEST(SolverComponents, MatchesGlobalSolveBitForBitAcrossThreadCounts) {
  ThreadCountGuard guard;
  sim::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 20; ++trial) {
    const int nlinks = 20 + static_cast<int>(rng.index(60));
    const int nflows = 1 + static_cast<int>(rng.index(120));
    std::vector<double> caps(static_cast<std::size_t>(nlinks));
    for (double& c : caps) c = rng.uniform(1.0, 100.0);
    std::vector<std::vector<int>> paths(static_cast<std::size_t>(nflows));
    for (auto& p : paths) {
      const int hops = 1 + static_cast<int>(rng.index(4));
      for (int h = 0; h < hops; ++h) {
        const int l = static_cast<int>(rng.index(static_cast<std::uint64_t>(nlinks)));
        if (std::find(p.begin(), p.end(), l) == p.end()) p.push_back(l);
      }
    }
    std::vector<double> weights(static_cast<std::size_t>(nflows));
    for (double& w : weights) w = rng.uniform(0.5, 4.0);

    const auto global = net::max_min_rates(caps, paths, &weights);
    for (int threads : {1, 2, 8}) {
      sim::set_thread_count(threads);
      net::SolveStats ss;
      const auto comp = net::max_min_rates_components(caps, paths, &weights, &ss);
      ASSERT_EQ(global.size(), comp.size());
      for (std::size_t f = 0; f < global.size(); ++f)
        EXPECT_EQ(global[f], comp[f])
            << "trial=" << trial << " flow=" << f << " threads=" << threads;
      EXPECT_GT(ss.iterations, 0);
    }
  }
}

// ------------------------------------------------------- determinism sweep --

// FlowSim churn digest, following the oracle pattern in test_obs.cpp, plus
// the metrics dump so snapshot determinism is asserted too.
struct ChurnDigest {
  std::vector<double> completion_times;
  std::vector<double> rates;
  std::uint64_t solver_iterations = 0;
  std::uint64_t flows_solved = 0;
  std::string metrics_text;
  std::string trace_json;

  bool operator==(const ChurnDigest&) const = default;
};

ChurnDigest run_churn() {
  obs::MetricsRegistry::instance().reset();
  obs::tracer().enable(std::size_t{1} << 14);
  obs::tracer().clear();

  ChurnDigest d;
  auto t = topo::Topology::uniform_dragonfly(8, {4, 4}, 1, 25e9, 180e-9);
  net::FabricConfig fcfg;
  fcfg.routing = net::Routing::Adaptive;
  net::Fabric fabric(std::move(t), fcfg);
  sim::Engine eng;
  net::FlowSimConfig fscfg;
  fscfg.incremental = false;  // force the full (component-parallel) path
  net::FlowSim fs(eng, fabric, fscfg);
  sim::Rng rng(4321);
  const int eps = fabric.topology().num_endpoints();
  int launched = 0;
  const int total = 150;
  std::function<void()> launch = [&] {
    if (launched >= total) return;
    ++launched;
    const int src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    int dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    if (dst == src) dst = (dst + 1) % eps;
    fs.start(src, dst, rng.uniform(1e6, 5e8), [&] {
      d.completion_times.push_back(eng.now());
      fs.for_each_flow(
          [&](std::uint64_t, const std::vector<int>&, double, double rate) {
            d.rates.push_back(rate);
          });
      launch();
    });
  };
  for (int i = 0; i < 16; ++i) launch();
  eng.run();
  d.solver_iterations = fs.stats().solver_iterations;
  d.flows_solved = fs.stats().flows_solved;
  d.metrics_text = obs::MetricsRegistry::instance().dump_text();
  std::ostringstream os;
  obs::tracer().write_json(os);
  d.trace_json = os.str();
  obs::tracer().disable();
  obs::tracer().clear();
  return d;
}

TEST(DeterminismSweep, FlowSimChurnBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  sim::set_thread_count(1);
  const ChurnDigest base = run_churn();
  EXPECT_FALSE(base.completion_times.empty());
  EXPECT_NE(base.metrics_text.find("net.resolves"), std::string::npos);
  for (int threads : {2, 8}) {
    sim::set_thread_count(threads);
    const ChurnDigest d = run_churn();
    EXPECT_TRUE(base == d) << "threads=" << threads;
    EXPECT_EQ(base.completion_times, d.completion_times);
    EXPECT_EQ(base.rates, d.rates);
    EXPECT_EQ(base.metrics_text, d.metrics_text);
    EXPECT_EQ(base.trace_json, d.trace_json);
  }
}

// Differential oracle under the thread sweep: at every thread count the
// incremental CSR solves must still match `max_min_rates_reference` — the
// retained original implementation — bit for bit on randomized churn. This
// is the ISSUE 5 contract: the zero-allocation CSR core and the parallel
// min-share scan change how rates are computed, never what they are.
TEST(DeterminismSweep, DifferentialOracleAcrossThreadCounts) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    sim::Engine eng;
    net::FabricConfig cfg;
    cfg.routing = net::Routing::Adaptive;
    net::Fabric fabric(topo::Topology::uniform_dragonfly(6, {4, 4}, 1, 25e9, 180e-9),
                       cfg);
    net::FlowSim fs(eng, fabric);
    sim::Rng rng(0xD1FFull + static_cast<std::uint64_t>(threads));
    const int eps = fabric.topology().num_endpoints();
    int launched = 0, completed = 0, checks = 0;
    const int total = 220;
    std::function<void()> check = [&] {
      std::vector<std::vector<int>> paths;
      std::vector<double> live;
      fs.for_each_flow([&](std::uint64_t, const std::vector<int>& p, double,
                           double rate) {
        paths.push_back(p);
        live.push_back(rate);
      });
      const auto ref =
          net::max_min_rates_reference(fabric.effective_capacities(), paths);
      ASSERT_EQ(ref.size(), live.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(live[i], ref[i])
            << "threads=" << threads << " flow index " << i;
      ++checks;
    };
    std::function<void()> launch = [&] {
      if (launched >= total) return;
      ++launched;
      const int src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
      int dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
      if (dst == src) dst = (dst + 1) % eps;
      fs.start(src, dst, rng.uniform(1e6, 5e8), [&] {
        ++completed;
        if (completed % 7 == 0) check();
        launch();
      });
    };
    for (int i = 0; i < 24; ++i) launch();
    eng.run();
    EXPECT_EQ(completed, total);
    EXPECT_GT(checks, 20);
  }
}

TEST(DeterminismSweep, MonteCarloBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const resil::ResiliencyModel model;
  resil::JobSimConfig cfg;
  cfg.work_hours = 6.0;

  sim::set_thread_count(1);
  const auto base = resil::replay_jobs(model, 0xFEED, 200, cfg);
  const auto base_iv = model.sample_intervals_sharded(20000, 0xFACE);
  for (int threads : {2, 8}) {
    sim::set_thread_count(threads);
    const auto s = resil::replay_jobs(model, 0xFEED, 200, cfg);
    EXPECT_EQ(base.mean.wall_hours, s.mean.wall_hours) << "threads=" << threads;
    EXPECT_EQ(base.mean.efficiency, s.mean.efficiency);
    EXPECT_EQ(base.mean.lost_work_hours, s.mean.lost_work_hours);
    EXPECT_EQ(base.mean.failures, s.mean.failures);
    EXPECT_EQ(base.mean.checkpoints, s.mean.checkpoints);
    EXPECT_EQ(base.efficiency_p5, s.efficiency_p5);
    EXPECT_EQ(base.efficiency_p95, s.efficiency_p95);
    EXPECT_EQ(base_iv, model.sample_intervals_sharded(20000, 0xFACE));
  }
}

TEST(DeterminismSweep, GpcnetBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const auto m = machines::frontier();
  const auto fabric = m.build_fabric();
  mpi::GpcnetConfig cfg;
  cfg.nodes = 1200;  // full pattern mix, manageable test runtime
  cfg.latency_samples = 512;

  auto digest = [&] {
    const auto r = mpi::run_gpcnet(m, fabric, cfg);
    std::vector<double> v;
    for (const auto& met : r.isolated) {
      v.push_back(met.average);
      v.push_back(met.p99);
    }
    for (const auto& met : r.congested) {
      v.push_back(met.average);
      v.push_back(met.p99);
    }
    v.insert(v.end(), r.impact.begin(), r.impact.end());
    return v;
  };

  sim::set_thread_count(1);
  const auto base = digest();
  for (int threads : {2, 8}) {
    sim::set_thread_count(threads);
    EXPECT_EQ(base, digest()) << "threads=" << threads;
  }
}

TEST(DeterminismSweep, ShiftPatternIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  sim::set_thread_count(1);
  const auto base = net::shift_pattern(10000, 137, 5);
  for (int threads : {2, 8}) {
    sim::set_thread_count(threads);
    EXPECT_EQ(base, net::shift_pattern(10000, 137, 5)) << "threads=" << threads;
  }
}

}  // namespace
