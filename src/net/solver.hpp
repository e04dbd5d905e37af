// Max-min fair bandwidth allocation (progressive water-filling).
//
// Given link capacities and one path (list of link ids) per flow, computes
// the unique max-min fair rate vector: repeatedly find the most constrained
// link, freeze every flow crossing it at the link's equal share, remove that
// bandwidth, and continue. This is the steady-state a credit-based,
// congestion-managed fabric like Slingshot converges to for long flows.
//
// The hot entry point is `max_min_rates_csr`: paths live in a flat CSR arena
// (`PathsCsr`), the transposed link->flow incidence is rebuilt into a
// caller-owned `SolveScratch` by counting sort, and a steady-state re-solve
// performs zero heap allocations once the scratch has warmed to the problem
// size (DESIGN.md §8). The `std::vector`-of-`std::vector` entry points are
// retained as thin adapters (and `max_min_rates_reference` as the original
// implementation) so differential tests can pin the CSR core bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xscale::net {

// Parallelisation gates shared by the CSR core and FlowSim's warm-start
// solve (flowsim.cpp mirrors the core loop over its persistent incidence,
// DESIGN.md §9). Below parallel_scan_threshold active links the serial
// min-scan wins; above it the scan is farmed out in scan_grain-link chunks
// (min over doubles is exact and order-independent, so the parallel reduce
// returns the same bits). A single firing link freezing at least
// parallel_update_min flows has its residual / active-weight updates applied
// by a parallel per-link sweep instead of the serial per-flow walk. Only
// batches from ONE firing link qualify: within such a batch the subtraction
// order projected onto any other link is ascending flow id — exactly the
// transposed-incidence order — so the parallel sweep performs the same
// subtractions per link in the same order and the result is bit-identical
// to the serial path (the gates depend only on problem state, never on the
// thread count — and never on which scan kernel is dispatched).
//
// Defaults come from the ISSUE 10 crossover sweep (DESIGN.md §9 records the
// measurements and derivation). Summary: the SIMD kernel scans at ~1
// ns/link (scalar ~2), one pool fork/join region costs ~2-9 µs depending on
// host and thread count, so the 4-thread scan break-even sits at ~3-8k
// links — the pre-SIMD 4096 threshold is still mid-band and stays (a
// cheaper serial baseline RAISES the scan crossover; it does not lower it).
// The update gate moves instead: one batched-update item is a whole path's
// subtractions (~15-30 ns, ~10x a scan link), so its measured crossover is
// ~300-500 flows and the gate drops 2048 -> 512. scan_grain halves to 1024:
// a chunk is then ~1-2 µs of kernel work, still far above per-chunk
// queueing cost, with half the tail imbalance. Override via
// set_solver_tuning (only while no solve is in flight, same contract as
// sim::set_thread_count).
struct SolverTuning {
  std::size_t parallel_scan_threshold = 4096;
  std::size_t scan_grain = 1024;
  std::size_t parallel_update_min = 512;
};
const SolverTuning& solver_tuning();
void set_solver_tuning(const SolverTuning& t);

struct SolveStats {
  // int64: per-component totals accumulated across long churn runs overflow
  // 32 bits (a week-long storage campaign re-solves billions of times).
  std::int64_t iterations = 0;
  std::int64_t bottleneck_links = 0;
  // Water-filling iterations whose min-share scan crossed the
  // parallel_scan_threshold gate and ran as a chunked parallel reduce
  // (scan_engaged% in the bench counters = parallel_scans / iterations).
  std::int64_t parallel_scans = 0;
  // Flows re-frozen from a `FreezePrefix` instead of water-filled.
  std::int64_t replayed_flows = 0;
};

// Flat CSR path set: flow f's links are `link_ids[offsets[f] ..
// offsets[f+1])`. `offsets` always carries num_flows()+1 entries with
// offsets[0] == 0. Append-only between `clear()`s; the backing vectors only
// grow, so a reused PathsCsr allocates nothing once warm.
struct PathsCsr {
  std::vector<int> link_ids;
  std::vector<int> offsets{0};

  std::size_t num_flows() const { return offsets.size() - 1; }
  std::size_t nnz() const { return link_ids.size(); }

  void clear() {
    link_ids.clear();
    offsets.clear();
    offsets.push_back(0);
  }

  // Append one flow; links must be non-empty and duplicate-free.
  template <typename It>
  void push_path(It first, It last) {
    for (; first != last; ++first) link_ids.push_back(*first);
    offsets.push_back(static_cast<int>(link_ids.size()));
  }

  // Incremental append: push links one by one, then seal the flow.
  void push_link(int l) { link_ids.push_back(l); }
  void end_path() { offsets.push_back(static_cast<int>(link_ids.size())); }
};

// Caller-owned, reusable working set for `max_min_rates_csr`. Buffers are
// grown on demand and never shrunk; a solve against a problem no larger than
// any previously seen one performs zero heap allocations (the
// `net.solver.scratch_reuse` counter tracks exactly that). Solver output is
// independent of prior scratch contents, so one scratch may serve unrelated
// problems back to back (FlowSim keeps one per simulator; the adapters keep
// one per thread).
struct SolveScratch {
  // Dense link-state SoA (ISSUE 10): residual capacity and unfrozen weight
  // are indexed by POSITION in `active_links`, not by link id, so the
  // min-share scan is a branch-free sweep over two contiguous double arrays
  // (src/net/simd.hpp). `link_pos[link id]` maps back (-1 when the link is
  // not on the active list); erasures compact all three arrays in tandem,
  // preserving first-seen order.
  std::vector<double> residual;   // [active position] remaining capacity
  std::vector<double> active_w;   // [active position] unfrozen weight
  std::vector<int> active_links;  // links with unfrozen flows, first-seen order
  std::vector<int> link_pos;      // [num_links] position in active_links or -1
  std::vector<char> frozen;       // [num_flows]
  // Transposed incidence (link -> flows), rebuilt per solve by counting sort.
  std::vector<int> t_off;     // [num_links + 1]
  std::vector<int> t_cursor;  // [num_links] fill cursors
  std::vector<int> t_flow;    // [nnz]
  // Parallel rate-update support: flows frozen by the current large batch
  // carry the current epoch, so the per-link update sweep can identify them
  // without any per-solve clearing (epoch grows monotonically).
  std::vector<std::uint64_t> batch_mark;  // [num_flows]
  std::uint64_t batch_epoch = 0;
  // Freeze-prefix replay: prefix flows grouped by level (counting sort), and
  // per arrival link the number of prefix flows per level that cross it.
  std::vector<int> replay_off;   // [levels + 2]
  std::vector<int> replay_flow;  // [num_flows]
  std::vector<int> probe_count;  // [arrival links x (levels + 1)]
  // Set by `max_min_rates_csr`: whether the last solve had to grow any
  // buffer. Owners with deterministic call sites use it to feed the
  // `net.solver.scratch_reuse` counter (the solver itself does not count —
  // per-worker-thread scratches would make the metric thread-count
  // dependent, violating the byte-identical metrics contract).
  bool last_solve_allocated = false;
};

// The first levels of an earlier solve of (almost) the same problem, for
// `max_min_rates_csr` to re-freeze before it water-fills (FlowSim's freeze
// ledger, DESIGN.md §9). The caller vouches that the cold solve of the
// current input freezes these groups first, in this order, at these rates —
// with one exception it need not vouch for: a single `arrival` the recorded
// solve did not contain. Before re-freezing level k the core then probes
// every link of the arrival against the level's share at each point of the
// firing sweep that could reach it, and stops the replay at the first level
// the arrival could change. Unit weights only.
struct FreezePrefix {
  // [num_flows] prefix level, renumbered 1..levels in freeze order with
  // every level holding at least one flow; 0 = the flow is not in the
  // prefix (the arrival never is) and is water-filled normally.
  const int* level = nullptr;
  // [num_flows] the rate each prefix flow froze at (equal within a level).
  const double* rate = nullptr;
  int levels = 0;
  int arrival = -1;  // flow index of the single arrival, or -1
};

// Stable counting sort of the flows [0, n) with level[f] in 1..levels into
// `order`, grouped by level: group k is order[off[k] .. off[k+1]). Flows at
// level 0 are skipped. Returns whether a buffer had to grow.
bool group_by_level(const int* level, std::size_t n, int levels,
                    std::vector<int>& off, std::vector<int>& order);

// Water-filling over a CSR path set. Writes one rate per flow into
// `rates_out` (size >= paths.num_flows()). Link ids must lie in
// [0, num_links); `weights` (nullable) has one entry per flow. Validation
// matches `max_min_rates`: non-finite/negative capacities or weights throw
// std::invalid_argument, an unbounded allocation throws std::runtime_error.
// Bit-for-bit identical to `max_min_rates_reference` on the same input — the
// differential suite pins this at every thread count. `prefix` (nullable)
// is re-frozen first; `levels_out` (nullable, size >= num_flows) receives
// each flow's 1-based freeze level, replayed levels included, so that
// `stats->iterations` and the levels are those of the cold solve.
void max_min_rates_csr(const double* capacities, std::size_t num_links,
                       const PathsCsr& paths, const double* weights,
                       double* rates_out, SolveStats* stats,
                       SolveScratch& scratch,
                       const FreezePrefix* prefix = nullptr,
                       int* levels_out = nullptr);

// `capacities[l]` is the capacity of link l; `paths[f]` lists the links of
// flow f (must be non-empty, without duplicates). Optional `weights` give
// weighted fairness (a flow counting as w concurrent streams); default 1.
// Thin adapter over `max_min_rates_csr` (packs the paths into a thread-local
// CSR arena); kept as the stable oracle-facing signature.
std::vector<double> max_min_rates(const std::vector<double>& capacities,
                                  const std::vector<std::vector<int>>& paths,
                                  const std::vector<double>* weights = nullptr,
                                  SolveStats* stats = nullptr);

// The original pointer-chasing implementation (vector-of-vectors incidence,
// per-solve allocations), retained as the differential oracle: the CSR core
// must match it bit-for-bit on every input — including flows with weight
// exactly 0 (both sides keep the active-link list first-seen-deduplicated;
// DESIGN.md §9 covers why that is the only input class where membership
// bookkeeping could otherwise diverge). Not a hot path.
std::vector<double> max_min_rates_reference(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights = nullptr, SolveStats* stats = nullptr);

// Same allocation, computed by decomposing the flow graph into connected
// components (flows transitively sharing links) and solving each component
// independently on the global thread pool (sim::parallel_for). Components
// never exchange bandwidth, so the union of per-component solutions equals
// the global solution — the incremental FlowSim re-solve has relied on that
// bit-for-bit since PR 1. Determinism: component ids are assigned in
// first-flow order, rates are written to index-disjoint slots, and `stats`
// are summed in ascending component id — output is byte-identical for any
// thread count, including 1. `stats->iterations` counts the per-component
// total, which can exceed the single-solve count (ties across unrelated
// components no longer collapse into one global iteration). Each worker
// packs its components into a thread-local CSR arena + scratch, so the
// steady-state cost is allocation-free here too.
std::vector<double> max_min_rates_components(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights = nullptr,
    SolveStats* stats = nullptr);

}  // namespace xscale::net
