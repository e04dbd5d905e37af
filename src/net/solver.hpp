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
// size (DESIGN.md §8). It is one of exactly two water-filling loops: every
// FlowSim re-solve (component and whole-set) and every adapter below runs
// it, and `max_min_rates_reference`, the original implementation, is kept as
// the differential oracle that pins it bit-for-bit. Each solve runs
// serially on its calling thread; parallelism lives a level up, across the
// components of `max_min_rates_components` and across serving sessions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xscale::net {

struct SolveStats {
  // int64: per-component totals accumulated across long churn runs overflow
  // 32 bits (a week-long storage campaign re-solves billions of times).
  std::int64_t iterations = 0;
  std::int64_t bottleneck_links = 0;
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

// Water-filling over a CSR path set. Writes one rate per flow into
// `rates_out` (size >= paths.num_flows()). Link ids must lie in
// [0, num_links); `weights` (nullable) has one entry per flow. Validation
// matches `max_min_rates`: non-finite/negative capacities or weights throw
// std::invalid_argument, an unbounded allocation throws std::runtime_error.
// Bit-for-bit identical to `max_min_rates_reference` on the same input — the
// differential suite pins this. `prefix` (nullable)
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
