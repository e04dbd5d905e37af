// Max-min fair bandwidth allocation (progressive water-filling).
//
// Given link capacities and one path (list of link ids) per flow, computes
// the unique max-min fair rate vector: repeatedly find the most constrained
// link, freeze every flow crossing it at the link's equal share, remove that
// bandwidth, and continue. This is the steady-state a credit-based,
// congestion-managed fabric like Slingshot converges to for long flows.
//
// The hot entry point is `max_min_rates_csr`: a problem is a `CompactPaths`,
// the one place a solve's links are numbered (dense compact ids in
// first-seen order), its paths live in a flat CSR arena, the transposed
// link->flow incidence is rebuilt into a caller-owned `SolveScratch` by
// counting sort, and a steady-state re-solve performs zero heap allocations
// once the scratch has warmed to the problem size (DESIGN.md §8). It is one
// of exactly two water-filling loops: every FlowSim re-solve (component
// and whole-set) and every adapter below runs it, and
// `max_min_rates_reference`, the original implementation, is kept as the
// differential oracle that pins it bit-for-bit. Each solve runs
// serially on its calling thread; parallelism lives a level up, across the
// components of `max_min_rates_compact` and across serving sessions.
#pragma once

#include <cassert>
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

  // Push a flow's links one by one, then seal the flow.
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
  // Dense link-state SoA: residual capacity and unfrozen weight are indexed
  // by POSITION in `active_links`, not by link id, so the share fill is a
  // branch-free sweep over two contiguous double arrays (src/net/simd.hpp).
  // A solve starts with position == compact link id; `link_pos[link id]`
  // maps back (-1 once the link has died), and a compaction moves the
  // arrays in tandem, preserving first-seen order. Buffers are sized to the
  // largest problem seen and never shrink (they are used through data
  // pointers).
  std::vector<double> residual;   // [active position] remaining capacity
  std::vector<double> active_w;   // [active position] unfrozen weight
  // Links with unfrozen flows, first-seen order (dead ones stay until the
  // next compaction).
  std::vector<int> active_links;
  std::vector<int> link_pos;      // [num_links] position in active_links or -1
  std::vector<char> frozen;       // [num_flows]
  // The cached share of every position, +inf once dead (DESIGN.md §9).
  std::vector<double> share;      // [active position]
  // Levels 1 and up of the tree of minima over the shares: block minima,
  // then minima of those, up to the overall minimum (ShareTree, solver.cpp).
  std::vector<double> block_min;
  // Per entry of block_min, whether it is stale; the stale entries.
  std::vector<int> block_stale;
  std::vector<int> stale_blocks;
  std::vector<unsigned char> queued;  // [active position] candidate or re-queued
  // The level's candidates in position order, and a min-heap of positions
  // queued mid-sweep; both grow to the most one level needed, not to the
  // problem.
  std::vector<int> candidates;
  std::vector<int> requeue;
  // Transposed incidence (link -> flows), rebuilt per solve by counting sort.
  std::vector<int> t_off;     // [num_links + 1]
  std::vector<int> t_flow;    // [nnz]
  std::vector<int> level_flows;  // [num_flows] the flows a level froze
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

// `capacities[l]` is the capacity of link l; `paths[f]` lists the links of
// flow f (must be non-empty, without duplicates). Optional `weights` give
// weighted fairness (a flow counting as w concurrent streams); default 1.
// Thin adapter over `max_min_rates_csr` (packs the paths into
// `thread_compact_paths()`); kept as the stable oracle-facing signature.
std::vector<double> max_min_rates(const std::vector<double>& capacities,
                                  const std::vector<std::vector<int>>& paths,
                                  const std::vector<double>* weights = nullptr,
                                  SolveStats* stats = nullptr);

// The original pointer-chasing implementation (vector-of-vectors incidence,
// per-solve allocations), retained as the differential oracle: the CSR core
// must match it bit-for-bit on every input — including flows with weight
// exactly 0 (both sides keep the active-link list first-seen-deduplicated;
// DESIGN.md §9 covers why that is the only input class where membership
// bookkeeping could otherwise diverge). Not a hot path. `levels_out`
// (nullable) receives each flow's 1-based freeze level, as
// `max_min_rates_csr` reports it.
std::vector<double> max_min_rates_reference(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights = nullptr, SolveStats* stats = nullptr,
    std::vector<int>* levels_out = nullptr);

// A path set renumbered onto compact link ids: the links the paths cross get
// ids 0, 1, ... in first-seen order, with their capacities alongside. This
// is the only place a solve's links are numbered. The original->compact map
// is kept all-unset between problems and cleared through the links the last
// problem touched, so building a problem costs O(nnz) however many links
// the fabric has. First-seen order is the order the reference lists active
// links in, so the CSR core takes the compact ids as its positions and
// performs the same arithmetic as the reference over the original ids, bit
// for bit. `push_virtual` adds a link private to the current path (a rate
// cap).
class CompactPaths {
 public:
  const PathsCsr& paths() const { return csr_; }  // over compact ids
  const std::vector<double>& capacities() const { return caps_; }
  // [compact id] the original link id, -1 for a virtual link.
  const std::vector<int>& original_ids() const { return link_of_; }
  // Elements reserved across the buffers. They only grow, so this changes
  // exactly when building a problem had to allocate.
  std::size_t reserved() const {
    return csr_.link_ids.capacity() + csr_.offsets.capacity() +
           caps_.capacity() + link_of_.capacity() + id_.capacity();
  }

  // Start an empty problem over original link ids [0, num_links).
  void begin(std::size_t num_links) {
    for (int l : link_of_)
      if (l >= 0) id_[static_cast<std::size_t>(l)] = -1;
    if (id_.size() < num_links) id_.resize(num_links, -1);
    csr_.clear();
    caps_.clear();
    link_of_.clear();
  }
  // Append original link `l` to the current path; `capacities[l]` is read
  // the first time the problem sees `l`.
  void push_link(int l, const double* capacities) {
    int& id = id_[static_cast<std::size_t>(l)];
    if (id < 0) {
      // Map `l` only once it is listed, so that `begin` can always unmap it.
      caps_.push_back(capacities[static_cast<std::size_t>(l)]);
      link_of_.push_back(l);
      id = static_cast<int>(caps_.size()) - 1;
    }
    csr_.push_link(id);
  }
  void push_virtual(double capacity) {
    csr_.push_link(static_cast<int>(caps_.size()));
    caps_.push_back(capacity);
    link_of_.push_back(-1);
  }
  void end_path() { csr_.end_path(); }
  // Build the problem of `paths` (each non-empty) over `capacities`.
  void assign(const std::vector<double>& capacities,
              const std::vector<std::vector<int>>& paths) {
    begin(capacities.size());
    for (const auto& p : paths) {
      assert(!p.empty());
      for (int l : p) push_link(l, capacities.data());
      end_path();
    }
  }

 private:
  PathsCsr csr_;
  std::vector<double> caps_;
  std::vector<int> link_of_;
  std::vector<int> id_;  // [original link] compact id, -1 when unset
};

// Water-filling over a compact problem. Writes one rate per flow into
// `rates_out` (size >= the problem's flow count); `weights` (nullable) has
// one entry per flow. The problem's link ids are dense, first-seen and all
// crossed (CompactPaths guarantees it), so they are the core's initial
// positions as they are. Validation matches `max_min_rates`: non-finite or
// negative capacities or weights throw std::invalid_argument, an unbounded
// allocation throws std::runtime_error. Bit-for-bit identical to
// `max_min_rates_reference` over the original link ids — the differential
// suite pins this. `prefix` (nullable) is re-frozen first; `levels_out`
// (nullable, size >= num_flows) receives each flow's 1-based freeze level,
// replayed levels included, so that `stats->iterations` and the levels are
// those of the cold solve.
void max_min_rates_csr(const CompactPaths& problem, const double* weights,
                       double* rates_out, SolveStats* stats,
                       SolveScratch& scratch,
                       const FreezePrefix* prefix = nullptr,
                       int* levels_out = nullptr);

// The calling thread's CompactPaths, shared by every builder on the thread
// (`max_min_rates`, `max_min_rates_components` and
// `Fabric::steady_rates`), so a process holds one fabric-sized remap per
// thread, not one per caller. A builder must finish with it before anything
// it calls builds another problem.
CompactPaths& thread_compact_paths();

// Max-min rates of a compact problem (one rate per flow into `rates_out`),
// by decomposing the flow graph into connected components (flows
// transitively sharing links) and solving each component independently on
// the global thread pool (sim::parallel_for). Components never exchange
// bandwidth, so the union of per-component solutions equals the global
// solution — the incremental FlowSim re-solve has relied on that
// bit-for-bit since PR 1. Determinism: component ids are assigned in
// first-flow order, rates are written to index-disjoint slots, and `stats`
// are summed in ascending component id — output is byte-identical for any
// thread count, including 1. `stats->iterations` counts the per-component
// total, which can exceed the single-solve count (ties across unrelated
// components no longer collapse into one global iteration). Each worker
// packs its components into a thread-local CompactPaths + scratch, so the
// steady-state cost is allocation-free here too. Validates only what it
// solves: a non-finite or negative capacity of a crossed link, or weight,
// throws std::invalid_argument before anything is solved.
void max_min_rates_compact(const CompactPaths& problem, const double* weights,
                           double* rates_out, SolveStats* stats = nullptr);

// `max_min_rates_compact` over a vector-of-paths problem: validates every
// capacity and weight, then packs the paths into `thread_compact_paths()`.
std::vector<double> max_min_rates_components(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights = nullptr,
    SolveStats* stats = nullptr);

}  // namespace xscale::net
