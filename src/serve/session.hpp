// Scenario serving: one session = one what-if stream over a shared snapshot.
//
// The capacity-planning workload (ROADMAP "xscale-as-a-service") is thousands
// of near-identical questions: take the machine, fail this handful of links,
// scale that link's capacity, inject this traffic, report completion times.
// A `ScenarioSession` answers them sequentially over a private
// `net::FabricOverlay` + `net::FlowSim`, while the expensive immutable state
// — topology, base capacities, dense routing index — lives in one
// `net::TopologySnapshot` shared by every session (DESIGN.md §10).
//
// Sessions are deliberately *stateful* between scenarios: the overlay is
// diffed (not rebuilt) against the next scenario's failure set, so a repeated
// failure set bumps no capacity epoch and keeps the FlowSim freeze ledger
// (DESIGN.md §9) and the session's solver scratch live. A sweep that
// perturbs one link per probe pays for one link, not for the machine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/flowsim.hpp"
#include "net/snapshot.hpp"
#include "sim/engine.hpp"

namespace xscale::serve {

// One flow to inject: endpoints, payload, start offset from scenario begin.
struct FlowSpec {
  int src = 0;
  int dst = 0;
  double bytes = 0;
  double start_s = 0;

  friend bool operator==(const FlowSpec&, const FlowSpec&) = default;
};

// A complete what-if question. `fail_links` / `capacity_overrides` describe
// the *desired* overlay state, not a delta — the session diffs them against
// its current overlay, so listing the same failure twice (or across
// consecutive scenarios) is free.
struct Scenario {
  std::vector<int> fail_links;
  std::vector<std::pair<int, double>> capacity_overrides;  // (link, B/s)
  std::vector<FlowSpec> flows;

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

struct ScenarioResult {
  // Per flow, seconds from scenario start to completion; -1 for flows dropped
  // (zero-rate over the failed fabric — StallPolicy::Drop).
  std::vector<double> completion_s;
  double makespan_s = 0;
  std::uint64_t dropped = 0;
  // Solver-effort delta for this scenario (whole-set and replay accounting).
  net::FlowSim::Stats stats;
  // Overlay epoch after applying the scenario (diff-applied: identical
  // repeated scenarios leave it unchanged).
  std::uint64_t capacity_epoch = 0;
};

class ScenarioSession {
 public:
  // Flows with zero max-min rate must be dropped, not stalled: a stalled flow
  // would pin `Engine::run()` forever and leak into the next scenario.
  static net::FlowSimConfig default_sim_config() {
    net::FlowSimConfig cfg;
    cfg.stall_policy = net::StallPolicy::Drop;
    return cfg;
  }

  explicit ScenarioSession(std::shared_ptr<const net::TopologySnapshot> snap,
                           net::FlowSimConfig sim_cfg = default_sim_config());

  // Apply the scenario's overlay (diffed against the current one), inject its
  // flows, run to completion, report. Flows that share a start instant are
  // started by one engine event inside one FlowSim::StartBatch, in index
  // order, so the instant costs one resolve, not one per flow (DESIGN.md §9
  // and §10 say when the answer is bitwise that of per-flow starts). Throws
  // std::invalid_argument on a malformed scenario (bad endpoint,
  // non-positive bytes, a negative or non-finite start) without touching
  // session state. A throw *mid-run* — the solver rejecting a
  // deliberately-unvalidated capacity override, routing finding no live
  // route — propagates after the engine and simulator are rebuilt, so no
  // queued event or in-flight flow (whose callbacks reference the dead run's
  // stack frame) survives into the next run; the overlay and its epoch are
  // kept, warm-start state starts cold.
  ScenarioResult run(const Scenario& sc);

  // Allocation-free form: reuse the caller's result buffers (grow-only). A
  // warmed session answering a repeated scenario through this overload
  // touches the heap zero times — the solver scratch, the engine's event
  // arena, the overlay-diff scratch, the start-order buffer and the scheduled
  // closures (which fit std::function's small-buffer; see run()'s loop) are
  // all session-lifetime.
  // tests/test_serve.cpp pins this with a counting allocator.
  void run(const Scenario& sc, ScenarioResult& out);

  const net::Fabric& fabric() const { return fabric_; }
  net::Fabric& fabric() { return fabric_; }
  const net::FlowSim& flowsim() const { return *sim_; }
  std::uint64_t scenarios_run() const { return scenarios_run_; }

 private:
  void validate(const Scenario& sc) const;
  void apply_overlay(const Scenario& sc);
  void reset_sim();
  // Absolute start time of flow `i` of the running scenario.
  double start_time(std::size_t i) const {
    return cur_t0_ + cur_sc_->flows[i].start_s;
  }
  // Starts, in one FlowSim batch, every flow of `start_order_[k..]` whose
  // start time equals that of `start_order_[k]`.
  void start_group(std::size_t k);

  net::Fabric fabric_;
  net::FlowSimConfig sim_cfg_;
  sim::Engine eng_;
  // optional<> only so reset_sim() can reconstruct it (FlowSim holds
  // references); engaged for the whole session lifetime.
  std::optional<net::FlowSim> sim_;
  std::uint64_t scenarios_run_ = 0;

  // Scenario-run scratch. The scheduled start/completion closures capture
  // only [this, index] (16 bytes, trivially copyable) so they live in
  // std::function's small-buffer instead of heap-allocating per flow per
  // scenario; the flow specs and result slot they need are reached through
  // these members. Valid only while run() is on the stack.
  const Scenario* cur_sc_ = nullptr;
  ScenarioResult* cur_res_ = nullptr;
  double cur_t0_ = 0;
  // Flow indices sorted by (start time, index): each start event owns one
  // run of equal times (grow-only).
  std::vector<std::size_t> start_order_;
  // Grow-only copies of the current overlay state for the diff in
  // apply_overlay() (the overlay mutates while we iterate, so iterating its
  // own vectors directly would be UB).
  std::vector<int> ov_failed_scratch_;
  std::vector<std::pair<int, double>> ov_caps_scratch_;
};

}  // namespace xscale::serve
