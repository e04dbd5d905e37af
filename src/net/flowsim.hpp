// Event-driven flow dynamics on top of the steady-state fabric model.
//
// Each active flow owns a path through the fabric; whenever the active set
// changes, rates are re-solved (max-min fair) and the next completion event
// is rescheduled. This gives byte-accurate completion times for overlapping
// transfers — used by the storage campaign simulator and application traces,
// where flows start and finish at different times.
//
// Rate resolution is *incremental*: the simulator keeps per-link active-flow
// sets, marks the links of every added/removed flow dirty, and re-runs
// water-filling only over the connected component of flows reachable from a
// dirty link (flows in other components share no links with it, so their
// max-min rates are provably unchanged — the global solution is the union of
// per-component solutions). When the affected component exceeds a configured
// fraction of the active set, the whole active set is re-solved instead
// (DESIGN.md §9): first the single-bottleneck closed form, else the same CSR
// core over every active flow in ascending id order. `incremental = false`
// always solves the whole set cold, component by component, and serves as
// the baseline of the differential tests in tests/test_flowsim.cpp, which
// assert bit-for-bit equality on randomized churn. Component and whole-set
// re-solves alike re-freeze the levels their delta cannot change from a
// per-flow freeze ledger (DESIGN.md §9).
//
// Storage is flat (DESIGN.md §8): flows live in a slot arena with a free
// list, per-link incidence holds slot indices, and the restricted re-solve
// packs into a persistent `PathsCsr` + `SolveScratch` — so a steady-state
// churn event (complete one flow, start another, re-solve the component)
// performs zero heap allocations once the arena has warmed. Byte accrual is
// lazy: a flow's `remaining` is only materialised when its rate changes
// (rates for untouched components are bitwise unchanged, so skipping them is
// exact, and incremental and full modes accrue on identical schedules —
// which keeps their completion times bit-for-bit equal).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace xscale::net {

// What to do with a flow whose solved rate is zero (every path through a
// failed link): `Stall` parks it visibly (it holds its links and is counted
// by `stalled_flows()`, recovering if capacity returns); `Drop` removes it
// immediately and reports it through the `on_stall` hook — its completion
// callback never fires. The old behaviour silently trickled such flows at
// 1 B/s, hiding the failure for simulated centuries.
enum class StallPolicy { Stall, Drop };

struct FlowSimConfig {
  bool incremental = true;
  // Hand the resolve to a whole-set solve when the affected component holds
  // more than this fraction of the active flows (the restricted solve would
  // not be cheaper). The whole-set solve needs no BFS completion and no id
  // sort: the simulator keeps its active flows in ascending id order.
  double fallback_fraction = 0.5;
  // Park single-bottleneck rates lazily (DESIGN.md §9): a uniform rate from
  // the closed form, or from the incremental verdict that only this mode
  // runs, is recorded once and materialised once per distinct timestamp
  // instead of being written to every flow. `false` writes it eagerly —
  // the reference for the write-back differential tests. Either way only
  // results that change a flow's rate do any work in `set_rate`.
  bool incremental_writeback = true;
  StallPolicy stall_policy = StallPolicy::Stall;
};

class FlowSim {
 public:
  using Done = std::function<void()>;
  using StallHook = std::function<void(std::uint64_t flow_id)>;

  FlowSim(sim::Engine& eng, const Fabric& fabric, FlowSimConfig cfg = {})
      : eng_(eng), fabric_(fabric), cfg_(cfg),
        rng_(fabric.config().seed ^ 0xF10Full) {}

  // Start a flow of `bytes` from endpoint `src` to `dst`; `on_done` fires at
  // the simulated completion time (transfer time only; callers add software
  // overheads and propagation latency). Routes directly into the slot's
  // reusable path buffer (allocation-free on minimal routing). Throws,
  // leaving every state untouched, std::invalid_argument when `bytes` is not
  // finite and std::out_of_range when an endpoint is outside the topology.
  std::uint64_t start(int src, int dst, double bytes, Done on_done);

  // Start a flow along an explicit path (e.g. storage traffic to OST
  // endpoints with custom capacities). Rejects a non-finite `bytes` and a
  // bad path the same way, before any state changes.
  std::uint64_t start_on_path(std::vector<int> path, double bytes, Done on_done);

  std::size_t active_flows() const { return active_count_; }

  // The fabric overlay's capacities changed out-of-band (a RotorSchedule slot
  // transition, a fabric-manager sweep): mark the given links dirty and
  // re-resolve now. This is how stalled flows on a re-priced link wake up —
  // they hold their links, so the dirty-link BFS reaches them even though no
  // flow was added or removed. Links not carried by any active flow are
  // ignored; out-of-range ids throw. The caller bumps the overlay epoch
  // (set_link_capacity/set_link_capacities) *before* calling this, which is
  // what retires the freeze ledger and the single-bottleneck summary.
  void notify_capacity_change(const std::vector<int>& links);

  // Zero-rate flows currently parked (StallPolicy::Stall) / removed so far
  // (StallPolicy::Drop). Stalled flows still count as active.
  std::size_t stalled_flows() const { return stalled_; }
  std::uint64_t dropped_flows() const { return dropped_; }
  void on_stall(StallHook hook) { stall_hook_ = std::move(hook); }

  // Solver-effort accounting, fed by every resolve; plumbed into
  // bench/micro_flowsim and the heap-churn tests.
  struct Stats {
    std::uint64_t resolves = 0;          // resolve passes over a non-empty set
    std::uint64_t full_solves = 0;       // whole-set solves (incremental off)
    std::uint64_t warm_solves = 0;       // threshold exceeded, whole-set solve
    std::uint64_t warm_single_hits = 0;  // single-bottleneck closed-form solves
    // Always 0 (there is no solution memo); kept because perfbench reads them.
    std::uint64_t warm_memo_hits = 0;
    std::uint64_t warm_memo_stale = 0;
    std::uint64_t warm_prefix_hits = 0;  // whole-set solves that replayed
    std::uint64_t component_solves = 0;  // restricted re-solves
    // Restricted re-solves that re-froze a prefix from the freeze ledger.
    std::uint64_t component_prefix_hits = 0;
    // Flows re-frozen from the freeze ledger instead of water-filled, on
    // the component and the whole-set path.
    std::uint64_t replayed_flows = 0;
    std::uint64_t flows_solved = 0;      // flows handed to the solver, total
    // Flows water-filled (not replayed) by whole-set solves.
    std::uint64_t frontier_flows = 0;
    std::uint64_t solver_iterations = 0;
    std::uint64_t bottleneck_links = 0;
    std::uint64_t largest_component = 0;
    // Rate write-back accounting: `applied` counts solver results that
    // actually changed a flow's rate (a `set_rate` that does work),
    // `skipped` counts results proven no-ops (the flow already held the
    // computed rate). applied + skipped == flows handed a result.
    std::uint64_t writeback_applied = 0;
    std::uint64_t writeback_skipped = 0;
    // Single-bottleneck verification scans: `minshare_incr` resolved the
    // verdict from the incremental per-link share summary (touching only
    // links incident to churned flows); `minshare_full` fell back to the
    // full O(live links) scan (summary invalid or inconclusive).
    std::uint64_t minshare_incr = 0;
    std::uint64_t minshare_full = 0;

    bool operator==(const Stats&) const = default;
  };
  const Stats& stats() const { return stats_; }
  const FlowSimConfig& config() const { return cfg_; }

  // Diagnostic/test hook: visits every active flow in ascending id order
  // (the differential tests rebuild the oracle problem from this).
  // `remaining` is reported as of the current simulated time.
  void for_each_flow(
      const std::function<void(std::uint64_t id, const std::vector<int>& path,
                               double remaining, double rate)>& fn) const;

 private:
  // One arena slot. id == 0 marks a free slot; `path` and `on_done` keep
  // their buffers across reuse so churn stops allocating once warm.
  struct Flow {
    std::uint64_t id = 0;
    double remaining = 0;
    double rate = 0;
    double accrued_at = 0;   // sim time `remaining` was last materialised at
    double start_time = 0;   // obs: span begin for the flow's lifetime
    double total_bytes = 0;  // obs: recorded on the completion span
    bool stalled = false;
    std::uint64_t visit_epoch = 0;  // BFS stamp for component discovery
    std::vector<int> path;
    Done on_done;
  };

  void ensure_sized();
  int alloc_slot();
  std::uint64_t start_slot(int slot, double bytes, Done on_done);
  void mark_dirty(int link);
  void clear_dirty();
  // Bytes drained at simulated time `t` but not yet subtracted from
  // `remaining` (the write-back happens in `accrue`).
  double remaining_at(const Flow& f, double t) const {
    return f.remaining - f.rate * (t - f.accrued_at);
  }
  void accrue(Flow& f);
  void insert_flow_links(int slot, const Flow& f);
  void remove_flow(int slot);  // unlinks + frees the slot; marks links dirty
  void set_rate(std::uint64_t id, Flow& f, double rate);
  // Fills `comp_slots_` with the slots of every flow reachable from the
  // dirty links via shared-link adjacency, ascending flow-id order, and
  // returns false. Returns true instead — `comp_slots_` unsorted, only a
  // size witness — as soon as the component provably holds more than
  // `max_flows` flows.
  bool affected_component(double max_flows);
  // Whole-active-set solve (DESIGN.md §9): the single-bottleneck closed
  // form, else `solve_component(active_order_)`.
  void warm_solve(SolveStats* ss);
  // Freeze ledger (DESIGN.md §9). `retire_ledger` makes every recorded
  // stamp stale at once. `ledger_prefix` decides from this resolve's delta
  // whether `members` (ascending id) may replay a recorded prefix: it
  // writes each member's renumbered prefix level (0 = not replayed) into
  // `replay_level_` and returns the number of levels, 0 when the members
  // must be solved cold. `*arrival` receives the arrival's member index
  // (-1 if none).
  void retire_ledger() { ledger_floor_ = pass_; }
  int ledger_prefix(const std::vector<int>& members, int* arrival);
  // Single-bottleneck closed form: if exactly one live link fires under the
  // water-filling cutoff computed against the *initial* state and every
  // active flow crosses it, the whole solve collapses to rate = min_share
  // for everyone — order-independent, so it is checked and applied without
  // the O(flows x hops) passes. True on hit; rates already applied.
  bool warm_single_bottleneck(SolveStats* ss);
  // Incremental single-bottleneck verdict from the per-link share summary,
  // touching only this resolve's dirty links. 1 = single bottleneck (the
  // uniform rate is now pending, lazily materialised); 0 = conclusively not
  // single-bottleneck (the full verification scan can be skipped); -1 =
  // summary insufficient, run the full O(live links) scan.
  int try_single_incremental(SolveStats* ss);
  // Apply the pending uniform rate (accruals as of `pending_time_`,
  // bit-identical to the eager per-resolve application it coalesced).
  void materialize_pending();
  // `remaining` under the pending uniform rate without materialising it.
  double remaining_eff_at(const Flow& f, double t) const;
  void note_writeback(std::uint64_t applied, std::uint64_t skipped);
  // Same, seeded from one flow under the caller's visit epoch — the full
  // solve sweeps components with this so it stays allocation-free.
  void component_from(int seed);
  // Packs `comp` (ascending id) into the CSR arena, solves it with the
  // ledger prefix its delta allows, records the new ledger entries and
  // writes back the rates that changed.
  void solve_component(const std::vector<int>& comp, SolveStats* ss);
  void resolve_and_schedule();

  sim::Engine& eng_;
  const Fabric& fabric_;
  FlowSimConfig cfg_;
  sim::Rng rng_;
  std::vector<Flow> slots_;
  std::vector<int> free_slots_;
  std::size_t active_count_ = 0;
  std::vector<int> link_load_;  // adaptive-routing load proxy
  std::vector<std::vector<int>> flows_on_link_;  // slot indices
  std::vector<char> link_dirty_;
  std::vector<int> dirty_links_;
  std::vector<std::uint64_t> link_visit_epoch_;
  std::uint64_t visit_epoch_ = 0;
  // Persistent working set for the restricted solve and the event handler —
  // grow-only, reused every resolve (the zero-allocation contract).
  std::vector<int> link_local_id_;
  std::vector<std::uint64_t> link_remap_epoch_;
  std::uint64_t remap_epoch_ = 0;
  std::vector<double> comp_caps_;
  PathsCsr comp_csr_;
  std::vector<double> comp_rates_;
  SolveScratch solve_scratch_;
  std::vector<int> comp_slots_;
  std::vector<int> link_q_;      // BFS frontier
  // Active slots in ascending flow-id order, maintained incrementally
  // (append on start — ids are monotonic — ordered erase on removal). This
  // is exactly the order the cold full solve visits flows in, so both
  // whole-set paths walk it directly, with no rebuild or sort.
  std::vector<int> active_order_;
  // Links with at least one active crosser, maintained incrementally (append
  // on first insert, lazily compacted when a scan meets an emptied link).
  // Only the *set* is meaningful — order is unspecified — which is exactly
  // enough for the order-free single-bottleneck scan.
  std::vector<int> live_links_;
  std::vector<char> live_link_in_;          // [link] membership flag
  // --- freeze ledger (DESIGN.md §9) --------------------------------------
  // Per slot: the id of the solve pass that last froze the flow, and its
  // 1-based level in that pass, written by every water-filling solve. A
  // stamp <= `ledger_floor_` is stale: resolves that set rates without
  // levels, Drop sweeps and capacity-epoch moves retire every stamp at once
  // by raising the floor.
  std::vector<std::uint64_t> ledger_pass_;  // [slot]
  std::vector<int> ledger_level_;           // [slot]
  std::uint64_t pass_ = 0;
  std::uint64_t ledger_floor_ = 0;
  std::uint64_t ledger_cap_epoch_ = 0;
  // Churn since the last resolve that solved: the removed flows' common
  // pass and lowest level, and the arrivals. A resolve that finds nothing
  // to solve keeps it, so removals accumulate until some solve consumes
  // them.
  struct Delta {
    int removed = 0;
    std::uint64_t pass = 0;  // common stamp of the removed flows
    int min_level = 0;       // lowest level among the removed flows
    bool mixed = false;      // a removed flow was stale or from another pass
    int arrivals = 0;
    int arrival_slot = -1;
  } delta_;
  std::vector<int> replay_level_;  // [member] renumbered prefix level
  std::vector<int> level_rank_;    // [recorded level] renumbering table
  std::vector<double> comp_prev_rate_;  // [member] rate before this solve
  std::vector<int> comp_levels_;        // [member] level in this solve
  // Lazy uniform rate (DESIGN.md §9): a successful single-bottleneck
  // resolve parks its (rate, time) here instead of writing every flow.
  // Same-instant re-solves overwrite it (zero-width rate segments perform no
  // accrual arithmetic in the eager path either, so coalescing is bitwise
  // exact); any read or later-time resolve materialises it first.
  // `pending_mixed_` records whether more than one distinct value was
  // parked this instant — if so, the eager path would have accrued every
  // flow at `pending_time_`, so the materialisation must too.
  bool pending_uniform_ = false;
  double pending_rate_ = 0.0;
  double pending_time_ = 0.0;
  double pending_first_ = 0.0;
  bool pending_mixed_ = false;
  // Per-link min-share summary: exact top-2 of max(0,c)/crossers over live
  // links, maintained across resolves so the single-bottleneck verification
  // touches only dirty links. Invalidated whenever a resolve ends without
  // refreshing it (component/full solves, drops after the verdict) or the
  // capacity epoch moves.
  bool sb_valid_ = false;
  bool sb_updated_ = false;    // summary refreshed during this resolve
  bool sb_skip_full_ = false;  // incremental verdict: conclusive "no"
  std::uint64_t sb_cap_epoch_ = 0;
  double sb_min1_ = 0.0, sb_min2_ = 0.0;
  int sb_l1_ = -1, sb_l2_ = -1;
  std::vector<int> dropped_slots_;
  std::vector<std::uint64_t> dropped_ids_;
  std::vector<int> done_slots_;
  std::vector<Done> done_callbacks_;
  std::size_t stalled_ = 0;
  std::uint64_t dropped_ = 0;
  StallHook stall_hook_;
  Stats stats_;
  std::uint64_t next_id_ = 1;
  std::uint64_t pending_event_ = 0;
  bool has_pending_event_ = false;
};

}  // namespace xscale::net
