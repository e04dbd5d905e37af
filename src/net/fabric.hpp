// The fabric: topology + routing + bandwidth sharing + congestion control.
//
// This is the model behind Figure 6 (mpiGraph histograms), Table 5 (GPCNeT)
// and every application communication estimate. It computes *steady-state*
// max-min fair rates for a set of concurrent flows; the event-driven
// `FlowSim` (flowsim.hpp) layers byte-counted dynamics on top for I/O and
// app traces.
//
// Since ISSUE 7 a Fabric is a thin pair (DESIGN.md §10):
//
//   * an immutable, shareable `TopologySnapshot` (snapshot.hpp) holding the
//     topology and base capacities, with no mutable state, readable from any
//     number of threads and sessions concurrently; and
//   * a cheap per-session `FabricOverlay` holding only this scenario's
//     failed-link set and capacity deltas, with copy-on-write effective
//     capacities and a per-overlay `capacity_epoch()`.
//
// `fail_link`/`restore_link` therefore mutate *only this fabric's overlay*:
// sibling fabrics sharing the snapshot see no capacity change and no epoch
// bump (routes are derived per call under this overlay's failure view, so
// there is nothing shared to invalidate). Both calls are
// idempotent and bounds-checked: failing an already-failed link or restoring
// a live one is a no-op that leaves the epoch — and every consumer cache
// keyed on it — untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/snapshot.hpp"
#include "net/solver.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"

namespace xscale::net {

// Per-session copy-on-write view over a shared snapshot: the scenario's
// failed links and capacity overrides, nothing else. Construction is O(1);
// the dense flag/capacity vectors materialise on the first mutation and are
// reused (grow-only) across `clear()`s. Not thread-safe for mutation — an
// overlay belongs to one session, like the simulator state it feeds.
class FabricOverlay {
 public:
  explicit FabricOverlay(std::shared_ptr<const TopologySnapshot> snap);

  const TopologySnapshot& snapshot() const { return *snap_; }
  const std::shared_ptr<const TopologySnapshot>& snapshot_ptr() const {
    return snap_;
  }

  // Base capacities until the first mutation, the overlay's private
  // copy-on-write vector afterwards.
  const std::vector<double>& effective_capacities() const {
    return cow_cap_.empty() ? snap_->base_capacities() : cow_cap_;
  }

  bool is_failed(int link_id) const {
    return !failed_.empty() && failed_[check_link(link_id)] != 0;
  }
  int failed_links() const { return static_cast<int>(failed_ids_.size()); }
  int failed_global_links() const { return failed_globals_; }
  // Failed link ids in fail order (stable across restores of other links).
  const std::vector<int>& failed_link_ids() const { return failed_ids_; }

  // Bumped on every *effective* mutation (fail, restore, capacity override,
  // clear). No-ops — repeated fails, restores of live links, overriding with
  // the value already in place — do not bump it, so consumer caches keyed on
  // the epoch (FlowSim's freeze ledger) survive redundant calls.
  std::uint64_t capacity_epoch() const { return cap_epoch_; }

  // All return whether anything changed (false = no-op). Out-of-range link
  // ids throw std::out_of_range.
  bool fail_link(int link_id);
  bool restore_link(int link_id);
  // Scenario capacity override in B/s (applied instead of the base capacity;
  // a failed link stays at 0 until restored, then takes the override). The
  // value is NOT validated here — the solver rejects non-finite/negative
  // capacities at resolve time, which the fault-injection tests rely on.
  bool set_link_capacity(int link_id, double capacity);
  // Batched capacity overrides: applies every (link, capacity) pair but bumps
  // the epoch AT MOST ONCE for the whole batch (zero times if every pair is a
  // no-op). An out-of-range id anywhere in the batch throws before any pair
  // is applied. A rotor slot transition re-prices one matching off and another on
  // through this call, so consumer caches see exactly one staleness event per
  // slot instead of one per link.
  bool set_link_capacities(const std::vector<std::pair<int, double>>& updates);
  // Remove a capacity override, returning the link to its base capacity.
  bool clear_link_capacity(int link_id);
  // Restore every failure and override in one call (one epoch bump).
  bool clear();

  const std::vector<std::pair<int, double>>& capacity_overrides() const {
    return overrides_;
  }

  // Dense failed-flag view for routing, or nullptr when no failed *global*
  // bundle exists (routing only ever detours around those, so local and
  // terminal failures never change a route).
  const std::vector<char>* routing_failure_view() const {
    return failed_globals_ > 0 ? &failed_ : nullptr;
  }

 private:
  std::size_t check_link(int link_id) const;
  bool set_capacity_no_bump(int link_id, double capacity);
  void materialize();
  double restored_capacity(int link_id) const;

  std::shared_ptr<const TopologySnapshot> snap_;
  std::vector<char> failed_;    // dense flags; empty until the first fail
  std::vector<int> failed_ids_;
  std::vector<std::pair<int, double>> overrides_;  // (link, capacity)
  std::vector<double> cow_cap_;  // empty until the first mutation
  int failed_globals_ = 0;
  std::uint64_t cap_epoch_ = 0;
};

class Fabric {
 public:
  // Builds a private snapshot (the classic single-scenario constructor).
  Fabric(topo::Topology topology, FabricConfig cfg);
  // Opens a session over an existing shared snapshot: O(1), no topology
  // copy — the serving layer opens one per scenario.
  explicit Fabric(std::shared_ptr<const TopologySnapshot> snapshot);
  ~Fabric();
  Fabric(Fabric&&) noexcept;
  Fabric& operator=(Fabric&&) noexcept;

  const topo::Topology& topology() const { return snap_->topology(); }
  const FabricConfig& config() const { return snap_->config(); }
  const std::shared_ptr<const TopologySnapshot>& snapshot() const {
    return snap_;
  }
  FabricOverlay& overlay() { return overlay_; }
  const FabricOverlay& overlay() const { return overlay_; }

  // Route one flow. Adaptive routing consults `global_load` (flows currently
  // assigned per link) when provided. This and every other per-pair entry
  // point below throw std::out_of_range for an endpoint outside
  // [0, num_endpoints).
  std::vector<int> route(int src_ep, int dst_ep, sim::Rng& rng,
                         const std::vector<int>* global_load = nullptr) const;

  // Same, writing into a caller-owned vector (cleared first). A minimal
  // route lands here without any allocation once `out` has warmed to the
  // path length — the FlowSim hot path relies on that.
  void route_into(int src_ep, int dst_ep, sim::Rng& rng,
                  const std::vector<int>* global_load,
                  std::vector<int>& out) const;

  // Routes every pair (adaptive decisions see earlier flows' load) and
  // solves for steady-state max-min rates (B/s per flow). Optional `weights`
  // let one flow stand in for several ranks sharing a NIC (weighted
  // fairness); optional `paths_out` returns the chosen paths (for ablation).
  // `rate_caps` (optional, 0 = uncapped) bound a flow's offered load — e.g.
  // message-rate-limited congestors that cannot saturate their NIC. Caps are
  // realized as per-flow virtual links, so capped flows still take part in
  // max-min fairness. Out-of-range endpoints throw std::out_of_range, and a
  // `weights` or `rate_caps` whose size differs from `pairs` throws
  // std::invalid_argument, before anything is routed. A non-finite or
  // negative capacity on a link some routed path crosses (or weight, or cap)
  // throws std::invalid_argument; links no path crosses are not read. A call
  // costs O(pairs + path links), with no pass over the fabric's links.
  std::vector<double> steady_rates(const std::vector<std::pair<int, int>>& pairs,
                                   const std::vector<double>* weights = nullptr,
                                   std::vector<std::vector<int>>* paths_out = nullptr,
                                   const std::vector<double>* rate_caps = nullptr) const;

  // One-way zero-load latency over the minimal path (failure detours apply).
  double base_latency(int src_ep, int dst_ep) const;
  int minimal_hops(int src_ep, int dst_ep) const;

  // Effective link capacities after NIC efficiency and this fabric's overlay
  // (indexed by link id).
  const std::vector<double>& effective_capacities() const {
    return overlay_.effective_capacities();
  }

  // --- fabric manager (§3.4.2) -------------------------------------------------
  // The Slingshot Fabric Manager sweeps for failures and pushes new routing
  // tables. Failing a global bundle makes minimal routing between its two
  // groups fall back to a one-intermediate-group detour; failing a local or
  // terminal link degrades its capacity to zero. Both touch only this
  // fabric's overlay: idempotent, bounds-checked, invisible to sibling
  // fabrics on the same snapshot. Return whether anything changed. Overlay
  // mutation must not race this fabric's own routing/solving (per-session
  // single-writer, as always); the shared snapshot needs no such care.
  bool fail_link(int link_id) { return overlay_.fail_link(link_id); }
  bool restore_link(int link_id) { return overlay_.restore_link(link_id); }
  // Scenario capacity override (see FabricOverlay::set_link_capacity).
  bool set_link_capacity(int link_id, double capacity) {
    return overlay_.set_link_capacity(link_id, capacity);
  }
  // Batched overrides, one epoch bump (see FabricOverlay::set_link_capacities).
  bool set_link_capacities(const std::vector<std::pair<int, double>>& updates) {
    return overlay_.set_link_capacities(updates);
  }
  bool clear_link_capacity(int link_id) {
    return overlay_.clear_link_capacity(link_id);
  }
  bool is_failed(int link_id) const { return overlay_.is_failed(link_id); }
  int failed_links() const { return overlay_.failed_links(); }

  // Bumped on every effective overlay mutation — per-overlay, never global.
  // Consumers that cache anything derived from `effective_capacities()`
  // (FlowSim's freeze ledger and single-bottleneck summary) compare epochs
  // instead of diffing the vector; sibling sessions' epochs never move.
  std::uint64_t capacity_epoch() const { return overlay_.capacity_epoch(); }

 private:
  void check_endpoints(int src_ep, int dst_ep, const char* who) const;
  void apply_hol_blocking(const CompactPaths& problem,
                          std::vector<double>& rates) const;

  std::shared_ptr<const TopologySnapshot> snap_;
  FabricOverlay overlay_;
};

}  // namespace xscale::net
