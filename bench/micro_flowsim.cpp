// Microbenchmarks for the incremental FlowSim rate solver and the engine's
// cancel-heavy event-queue behaviour (ISSUE 2 acceptance: >= 5x flow-update
// throughput over the full re-solve baseline on 1,024-endpoint all-to-all;
// ISSUE 5 acceptance: zero heap allocations per steady-state incremental
// re-solve, proven by the interposed counting allocator below).
//
// Each churn benchmark keeps one outstanding flow per participating endpoint
// over a dragonfly fabric; every completion immediately launches the next
// flow of the pattern, so steady state holds F ~ n concurrent flows and every
// event is an add+remove against the solver. `items_per_second` is therefore
// completed-flow throughput, i.e. flow-update throughput.
//
// Reported counters:
//   comp_avg   — mean flows handed to the solver per resolve (full = F)
//   warm%      — share of resolves that re-solved the whole active set
//   heap       — engine heap occupancy at the end of the run
//   stale      — cancelled-but-unpopped heap entries (bounded by compaction)
//   allocs/op  — heap allocations per completed flow (includes sim setup)
//   allocs/resolve — steady-state allocations per re-solve (BM_SteadyResolve;
//                    the ISSUE 5 zero-allocation acceptance number)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <new>
#include <optional>
#include <vector>

#include "net/fabric.hpp"
#include "net/flowsim.hpp"
#include "net/rotor.hpp"
#include "net/simd.hpp"
#include "obs/options.hpp"
#include "resil/jobsim.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"

// ---------------------------------------------------------------------------
// Interposed counting allocator: every global new/new[] (aligned and nothrow
// forms included) bumps one relaxed atomic. Benchmarks read deltas around the
// measured region, so the zero-allocation claim is checked against the real
// allocator, not a model of it.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace xscale;

namespace {

enum class Pattern { Permutation, Incast, AllToAll };

// Topology family for the cross-topology churn rows (ISSUE 9): same churn
// driver, same counters, different fabric physics.
enum class Fab { Dragonfly, OsFatTree, Rotor };

// Wall-clock of the last build_fabric call, in ms — recorded per benchmark so
// a topology-construction regression shows up in the snapshot instead of
// silently inflating setup time outside the measured region.
double g_topo_build_ms = 0.0;

net::Fabric build_fabric(int endpoints, Fab fam = Fab::Dragonfly) {
  const auto tb0 = std::chrono::steady_clock::now();
  topo::Topology t = [&] {
    switch (fam) {
      case Fab::OsFatTree: {
        // Square-ish leaves x eps_per_leaf = n, 4:1 oversubscribed uplinks.
        int leaves = 8, e = 8;  // 64
        if (endpoints >= 1024) {
          leaves = 32; e = 32;
        } else if (endpoints >= 256) {
          leaves = 16; e = 16;
        }
        return topo::Topology::oversubscribed_fat_tree(leaves, e, 4.0, 25e9,
                                                       180e-9);
      }
      case Fab::Rotor: {
        // Full-coverage rotor (n_matchings = n_switches - 1) so every churn
        // pair eventually gets a live slot.
        int sw = 8, e = 8;  // 64
        if (endpoints >= 256) {
          sw = 16; e = 16;
        }
        return topo::Topology::rotor(sw, e, sw - 1, 250e-6, 0.9, 25e9,
                                     180e-9);
      }
      case Fab::Dragonfly:
        break;
    }
    // Dragonfly shapes sized so groups x switches x endpoints = n. Above the
    // paper's single-Frontier shape the ladder scales by adding groups at the
    // same 16x8 group spec (the real machine's scale-out axis): 148 groups ~
    // 2x Frontier, 296 ~ 4x, 740 ~ 10x (the 100k smoke row).
    int g = 4, s = 4, e = 4;  // 64
    if (endpoints >= 75776) {
      g = 740; s = 16; e = 8;  // 94,720 eps — 10x-Frontier smoke shape
    } else if (endpoints >= 37888) {
      g = 296; s = 16; e = 8;  // 37,888 eps — 4x Frontier
    } else if (endpoints >= 18944) {
      g = 148; s = 16; e = 8;  // 18,944 eps — 2x Frontier
    } else if (endpoints >= 9408) {
      g = 74; s = 16; e = 8;  // 9,472 eps — the paper's 74+6-group shape
    } else if (endpoints >= 4096) {
      g = 32; s = 16; e = 8;
    } else if (endpoints >= 1024) {
      g = 16; s = 8; e = 8;
    } else if (endpoints >= 256) {
      g = 8; s = 8; e = 4;
    }
    return topo::Topology::uniform_dragonfly(g, {s, e}, 1, 25e9, 180e-9);
  }();
  net::FabricConfig cfg;
  cfg.routing = net::Routing::Minimal;  // deterministic paths across modes
  net::Fabric fabric(std::move(t), cfg);
  g_topo_build_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                tb0)
          .count();
  return fabric;
}

// Churn driver: one outstanding flow per participating endpoint until the
// launch budget runs out. The completion callback captures only {this, src}
// (12 bytes), so it fits std::function's small-buffer storage — flow starts
// in the measured region touch no allocator for the closure.
struct ChurnDriver {
  net::FlowSim& fs;
  Pattern p;
  int n;
  std::uint64_t budget = 0;  // launches remaining
  sim::Rng rng{0xC0FFEE};
  std::uint64_t completions = 0;
  // Steady-window probe (ISSUE 8): stats snapshots at two completion
  // milestones, so write-back effectiveness can be measured over mid-run
  // steady churn only. The t=0 ramp fill and the end-of-budget drain tail
  // both change the shared bottleneck's uniform rate on every step — those
  // are genuine whole-set rate changes (the eager reference applies them
  // too), not write-back waste, and must not pollute the sub-linear gate.
  std::uint64_t mark1 = 0, mark2 = 0;  // 0 = disabled
  net::FlowSim::Stats stats1{}, stats2{};
  std::uint64_t allocs1 = 0, allocs2 = 0;  // heap_allocs() at the marks
  std::vector<int> shift;
  std::vector<int> perm;
  std::vector<int> idle;  // endpoints whose chain stopped on budget exhaustion
  std::vector<int> restart;  // swap partner for `idle` (keeps capacity warm)

  ChurnDriver(net::FlowSim& fs_, Pattern p_, int n_) : fs(fs_), p(p_), n(n_) {
    shift.assign(static_cast<std::size_t>(n), 0);
    perm.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      perm[static_cast<std::size_t>(i)] = (i + n / 2) % n;
    idle.reserve(static_cast<std::size_t>(n));
    restart.reserve(static_cast<std::size_t>(n));
  }

  void launch(int src) {
    if (budget == 0) {
      idle.push_back(src);
      return;
    }
    --budget;
    int dst = src;
    switch (p) {
      case Pattern::Permutation:
        dst = perm[static_cast<std::size_t>(src)];
        break;
      case Pattern::Incast:
        dst = 0;
        break;
      case Pattern::AllToAll: {
        auto& k = shift[static_cast<std::size_t>(src)];
        dst = (src + 1 + k) % n;
        k = (k + 1) % (n - 1);
        break;
      }
    }
    fs.start(src, dst, rng.uniform(1e7, 1e8), [this, src] {
      ++completions;
      if (completions == mark1) {
        stats1 = fs.stats();
        allocs1 = heap_allocs();
      } else if (completions == mark2) {
        stats2 = fs.stats();
        allocs2 = heap_allocs();
      }
      launch(src);
    });
  }

  // Grant `ops` more launches and restart every idled endpoint chain.
  void resume(std::uint64_t ops) {
    budget += ops;
    restart.clear();
    restart.swap(idle);  // idle becomes the empty (but reserved) buffer
    for (int src : restart) launch(src);
  }
};

// Completion target for one churn run over n endpoints. Small rows replace
// every flow once over (2n completions: n ramp + n replacements); the
// multi-Frontier rows (>= 16,384 endpoints, ISSUE 10) cap the replacement
// phase at n/4 churn events so a 94k-endpoint run stays minutes, not hours —
// steady-state throughput is already converged well before one full
// replacement generation.
std::uint64_t churn_target(int n) {
  const auto un = static_cast<std::uint64_t>(n);
  return n >= 16384 ? un + un / 4 : 2 * un;
}

// One churn run from scratch: `target` completions. Returns completions.
// With `wb` non-null, also reports write-back and allocation counts over the
// steady window: with R = target - n replacement launches after the initial
// ramp, the window spans completions R/4 .. 3R/4 — strictly inside the
// replacement-sustained phase (the budget lasts until completion R), so it
// sees neither the initial ramp nor the drain tail.
struct WindowCounts {
  std::uint64_t applied = 0, skipped = 0;
  std::uint64_t allocs = 0, ops = 0;  // heap allocations over the window
};
std::uint64_t churn(net::FlowSim& fs, sim::Engine& eng, Pattern p, int n,
                    std::uint64_t target, WindowCounts* wb = nullptr) {
  ChurnDriver d(fs, p, n);
  d.budget = target;
  if (wb) {
    const std::uint64_t r = target - static_cast<std::uint64_t>(n);
    d.mark1 = r / 4;
    d.mark2 = 3 * r / 4;
  }
  const int first = p == Pattern::Incast ? 1 : 0;
  for (int i = first; i < n; ++i) d.launch(i);
  eng.run();
  if (wb) {
    wb->applied = d.stats2.writeback_applied - d.stats1.writeback_applied;
    wb->skipped = d.stats2.writeback_skipped - d.stats1.writeback_skipped;
    wb->allocs = d.allocs2 - d.allocs1;
    wb->ops = d.mark2 - d.mark1;
  }
  return d.completions;
}

// Re-price a rotor overlay back to slot 0 (matching 0 live, rest dark) so
// every run starts from the same slot state regardless of where the previous
// run's rotation stopped — RotorSchedule assumes slot-0 pricing at
// construction.
void reset_rotor_slot0(net::Fabric& fabric) {
  const auto& t = fabric.topology();
  std::vector<std::pair<int, double>> batch;
  for (int m = 0; m < t.rotor_matchings(); ++m)
    for (int l : t.rotor_matching_links(m))
      batch.emplace_back(l, m == 0 ? t.rotor_active_capacity() : 0.0);
  fabric.set_link_capacities(batch);
}

void BM_FlowChurn(benchmark::State& state, Pattern p, bool incremental,
                  Fab fam = Fab::Dragonfly) {
  const int n = static_cast<int>(state.range(0));
  auto fabric = build_fabric(n, fam);
  const bool is_rotor = fabric.topology().is_rotor();
  const double topo_ms = g_topo_build_ms;
  const auto target = churn_target(n);
  net::FlowSim::Stats last{};
  std::size_t heap = 0, stale = 0;
  std::uint64_t allocs = 0, slot_transitions = 0;
  WindowCounts wb{};
  for (auto _ : state) {
    const std::uint64_t a0 = heap_allocs();
    sim::Engine eng;
    if (is_rotor) reset_rotor_slot0(fabric);
    net::FlowSim fs(eng, fabric, {.incremental = incremental});
    std::optional<net::RotorSchedule> rotor;
    if (is_rotor) {
      rotor.emplace(eng, fabric, &fs);
      rotor->start();
    }
    const auto done = churn(fs, eng, p, n, target, &wb);
    benchmark::DoNotOptimize(done);
    allocs += heap_allocs() - a0;
    last = fs.stats();
    heap = eng.heap_size();
    stale = eng.cancelled_events();
    if (rotor) slot_transitions = rotor->transitions();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(target));
  const double solves =
      static_cast<double>(last.full_solves + last.component_solves);
  state.counters["comp_avg"] =
      solves > 0 ? static_cast<double>(last.flows_solved) / solves : 0.0;
  state.counters["heap"] = static_cast<double>(heap);
  state.counters["stale"] = static_cast<double>(stale);
  // Warm-start effectiveness (ISSUE 6): share of resolves taking the warm
  // whole-set path, and the mean flows actually *iterated* per warm solve
  // (closed-form hits and frozen-prefix replays shrink this below the
  // active set).
  state.counters["warm%"] =
      last.resolves ? 100.0 * static_cast<double>(last.warm_solves) /
                          static_cast<double>(last.resolves)
                    : 0.0;
  state.counters["frontier_avg"] =
      last.warm_solves ? static_cast<double>(last.frontier_flows) /
                             static_cast<double>(last.warm_solves)
                       : 0.0;
  // Whole-run allocations per completed flow, cold start included (engine,
  // simulator, first-touch arena growth) — the trajectory number. The
  // steady-state zero-allocation claim is BM_SteadyResolve's.
  state.counters["allocs/op"] =
      state.iterations()
          ? static_cast<double>(allocs) /
                static_cast<double>(state.iterations() * target)
          : 0.0;
  // Write-back effectiveness (ISSUE 8), measured over the mid-run steady
  // window only (see `churn`): share of write-back decisions that actually
  // changed a rate. Incast steady state must stay sub-linear — same-instant
  // coalescing parks one uniform rate per churn event and the
  // materialisation skips almost everyone — which check_bench.py gates.
  const double wb_total = static_cast<double>(wb.applied + wb.skipped);
  state.counters["writeback%"] =
      wb_total > 0
          ? 100.0 * static_cast<double>(wb.applied) / wb_total
          : 0.0;
  // Steady-window allocations per churn event (ISSUE 10): allocs/op above
  // includes the cold start (engine, simulator, first-touch arena growth) by
  // design; this one is measured strictly inside the replacement-sustained
  // window and must sit at ~0 on incremental rows — the per-op restatement
  // of BM_SteadyResolve's zero-allocation claim, now visible on every row.
  state.counters["steady_allocs/op"] =
      wb.ops ? static_cast<double>(wb.allocs) / static_cast<double>(wb.ops)
             : 0.0;
  state.counters["topo_build_ms"] = topo_ms;
  if (is_rotor) {
    // Slot-boundary cost: how many transitions the run needed.
    // check_bench.py gates that rotor rows actually rotated.
    state.counters["slot_transitions"] = static_cast<double>(slot_transitions);
  }
}

// ISSUE 5 acceptance probe: allocations per *steady-state* incremental
// re-solve. One engine + simulator persist across the whole benchmark; a
// warmup churn grows every arena (flow slots, per-link incidence, CSR
// scratch, engine heap) to its fixed point, then each iteration
// runs a measured churn window against the warm state. allocs/resolve must
// be exactly 0.
void BM_SteadyResolve(benchmark::State& state, Pattern p) {
  const int n = static_cast<int>(state.range(0));
  const auto fabric = build_fabric(n);
  sim::Engine eng;
  net::FlowSim fs(eng, fabric, {.incremental = true});
  ChurnDriver d(fs, p, n);
  // Warm up long enough for all-to-all to visit many shift phases, so
  // per-link incidence lists reach their steady capacity.
  const auto warm = static_cast<std::uint64_t>(std::max(8 * n, 20000));
  d.budget = warm;
  const int first = p == Pattern::Incast ? 1 : 0;
  for (int i = first; i < n; ++i) d.launch(i);
  eng.run();

  const auto window = static_cast<std::uint64_t>(2 * n);
  for (int i = 0; i < 2; ++i) {  // discard windows: absorb late capacity maxima
    d.resume(window);
    eng.run();
  }
  std::uint64_t allocs = 0, resolves = 0, ops = 0;
  for (auto _ : state) {
    const std::uint64_t a0 = heap_allocs();
    const std::uint64_t r0 = fs.stats().resolves;
    const std::uint64_t c0 = d.completions;
    d.resume(window);
    eng.run();
    allocs += heap_allocs() - a0;
    resolves += fs.stats().resolves - r0;
    ops += d.completions - c0;
    benchmark::DoNotOptimize(d.completions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["allocs/resolve"] =
      resolves ? static_cast<double>(allocs) / static_cast<double>(resolves)
               : 0.0;
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.counters["resolves"] = static_cast<double>(resolves);
}

// Whole-set churn: all-to-all churn with fallback_fraction = 0, which
// routes every resolve through the whole-set path — the closed form or the
// CSR core over every active flow (plain incremental all-to-all churn
// solves small per-churn components, never the whole set). One row at the
// paper's 9,408 endpoints, one at 4x Frontier.
void BM_FlowChurnWholeSet(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fabric = build_fabric(n);
  const auto target = churn_target(n);
  net::FlowSim::Stats last{};
  for (auto _ : state) {
    sim::Engine eng;
    net::FlowSim fs(eng, fabric,
                    {.incremental = true, .fallback_fraction = 0.0});
    const auto done = churn(fs, eng, Pattern::AllToAll, n, target);
    benchmark::DoNotOptimize(done);
    last = fs.stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(target));
  state.counters["warm%"] =
      last.resolves ? 100.0 * static_cast<double>(last.warm_solves) /
                          static_cast<double>(last.resolves)
                    : 0.0;
  state.counters["frontier_avg"] =
      last.warm_solves ? static_cast<double>(last.frontier_flows) /
                             static_cast<double>(last.warm_solves)
                       : 0.0;
}

// Thread-scaling companion for the resiliency Monte Carlo paths (trial-
// sharded job replay); lives here so one binary produces both scaling
// curves for EXPERIMENTS.md.
void BM_JobReplayThreads(benchmark::State& state) {
  const int prev_threads = sim::thread_count();
  sim::set_thread_count(static_cast<int>(state.range(0)));
  const resil::ResiliencyModel model;
  resil::JobSimConfig cfg;
  cfg.work_hours = 24.0;
  const int trials = 20000;
  for (auto _ : state) {
    const auto s = resil::replay_jobs(model, 0x5EED, trials, cfg);
    benchmark::DoNotOptimize(s.mean.efficiency);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          trials);
  state.counters["threads"] = static_cast<double>(state.range(0));
  sim::set_thread_count(prev_threads);
}

// Engine-level churn: the reschedule pattern (schedule, cancel, schedule)
// that used to accumulate stale heap entries without bound.
void BM_EngineCancelChurn(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < live; ++i)
      ids.push_back(eng.schedule_at(1e9 + i, [] {}));
    for (int i = 0; i < 200000; ++i) {
      const auto idx = static_cast<std::size_t>(i % live);
      eng.cancel(ids[idx]);
      ids[idx] = eng.schedule_at(static_cast<double>(i), [] {});
    }
    benchmark::DoNotOptimize(eng.heap_size());
    state.counters["heap"] = static_cast<double>(eng.heap_size());
    state.counters["stale"] = static_cast<double>(eng.cancelled_events());
    state.counters["compactions"] = static_cast<double>(eng.compactions());
  }
  state.SetItemsProcessed(state.iterations() * 200000);
}

}  // namespace

// Multi-Frontier rows (ISSUE 10): 18,944 (2x Frontier), 37,888 (4x), and a
// 94,720-endpoint (10x) permutation smoke row. record_bench.sh --quick
// filters them out; the full recording includes them.
BENCHMARK_CAPTURE(BM_FlowChurn, permutation_incremental, Pattern::Permutation, true)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(9408)
    ->Arg(18944)->Arg(37888)->Arg(94720)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FlowChurn, permutation_full, Pattern::Permutation, false)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FlowChurn, alltoall_incremental, Pattern::AllToAll, true)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(9408)
    ->Arg(18944)->Arg(37888)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FlowChurn, alltoall_full, Pattern::AllToAll, false)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FlowChurn, incast_incremental, Pattern::Incast, true)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(9408)
    ->Arg(18944)->Arg(37888)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FlowChurn, incast_full, Pattern::Incast, false)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
// Cross-topology churn rows (ISSUE 9): identical driver and counters on the
// 4:1 oversubscribed fat-tree and the full-coverage rotor, so the write-back
// and rotor gates cover all three fabric families.
BENCHMARK_CAPTURE(BM_FlowChurn, osft_permutation_incremental,
                  Pattern::Permutation, true, Fab::OsFatTree)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FlowChurn, osft_incast_incremental, Pattern::Incast,
                  true, Fab::OsFatTree)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FlowChurn, rotor_permutation_incremental,
                  Pattern::Permutation, true, Fab::Rotor)
    ->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FlowChurn, rotor_incast_incremental, Pattern::Incast,
                  true, Fab::Rotor)
    ->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SteadyResolve, alltoall, Pattern::AllToAll)
    ->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SteadyResolve, permutation, Pattern::Permutation)
    ->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineCancelChurn)->Arg(4)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FlowChurnWholeSet)
    ->Arg(9408)->Arg(37888)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JobReplayThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

#ifndef XSCALE_BUILD_TYPE
#define XSCALE_BUILD_TYPE "unknown"
#endif

// Expanded BENCHMARK_MAIN() so the shared obs flags (--trace <file>,
// --metrics) are stripped before google-benchmark parses argv. The context
// carries the simulator's build type and the dispatched scan kernel, which
// scripts/record_bench.sh stamps into the snapshot.
int main(int argc, char** argv) {
  xscale::obs::BenchObs obs(argc, argv);
  benchmark::AddCustomContext("build_type", XSCALE_BUILD_TYPE);
  benchmark::AddCustomContext("scan_kernel", net::min_share_scan_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
