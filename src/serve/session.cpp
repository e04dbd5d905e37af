#include "serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace xscale::serve {

namespace {

net::FlowSim::Stats stats_delta(const net::FlowSim::Stats& after,
                                const net::FlowSim::Stats& before) {
  net::FlowSim::Stats d;
  d.resolves = after.resolves - before.resolves;
  d.full_solves = after.full_solves - before.full_solves;
  d.warm_solves = after.warm_solves - before.warm_solves;
  d.warm_single_hits = after.warm_single_hits - before.warm_single_hits;
  d.warm_memo_hits = after.warm_memo_hits - before.warm_memo_hits;
  d.warm_memo_stale = after.warm_memo_stale - before.warm_memo_stale;
  d.warm_prefix_hits = after.warm_prefix_hits - before.warm_prefix_hits;
  d.component_solves = after.component_solves - before.component_solves;
  d.component_prefix_hits =
      after.component_prefix_hits - before.component_prefix_hits;
  d.replayed_flows = after.replayed_flows - before.replayed_flows;
  d.flows_solved = after.flows_solved - before.flows_solved;
  d.frontier_flows = after.frontier_flows - before.frontier_flows;
  d.solver_iterations = after.solver_iterations - before.solver_iterations;
  d.bottleneck_links = after.bottleneck_links - before.bottleneck_links;
  d.largest_component =
      std::max(after.largest_component, before.largest_component);
  d.writeback_applied = after.writeback_applied - before.writeback_applied;
  d.writeback_skipped = after.writeback_skipped - before.writeback_skipped;
  d.minshare_incr = after.minshare_incr - before.minshare_incr;
  d.minshare_full = after.minshare_full - before.minshare_full;
  return d;
}

}  // namespace

ScenarioSession::ScenarioSession(
    std::shared_ptr<const net::TopologySnapshot> snap,
    net::FlowSimConfig sim_cfg)
    : fabric_(std::move(snap)), sim_cfg_(sim_cfg) {
  sim_.emplace(eng_, fabric_, sim_cfg_);
}

void ScenarioSession::reset_sim() {
  // Destroy the simulator before wiping the engine it references: its
  // completion callbacks and pending-event ids die with it, then the fresh
  // engine starts with an empty heap at t = 0 (results are relative to t0,
  // so the clock reset is unobservable).
  sim_.reset();
  eng_ = sim::Engine{};
  sim_.emplace(eng_, fabric_, sim_cfg_);
}

void ScenarioSession::validate(const Scenario& sc) const {
  const int neps = fabric_.topology().num_endpoints();
  const auto nlinks = fabric_.snapshot()->num_links();
  for (int l : sc.fail_links)
    if (l < 0 || static_cast<std::size_t>(l) >= nlinks)
      throw std::invalid_argument("scenario: fail link " + std::to_string(l) +
                                  " out of range");
  for (const auto& [l, cap] : sc.capacity_overrides) {
    if (l < 0 || static_cast<std::size_t>(l) >= nlinks)
      throw std::invalid_argument("scenario: override link " +
                                  std::to_string(l) + " out of range");
    (void)cap;  // value intentionally unchecked: the solver rejects bad
                // capacities at resolve time (fault-injection tests)
  }
  for (const FlowSpec& f : sc.flows) {
    if (f.src < 0 || f.src >= neps || f.dst < 0 || f.dst >= neps ||
        f.src == f.dst)
      throw std::invalid_argument("scenario: bad flow endpoints " +
                                  std::to_string(f.src) + " -> " +
                                  std::to_string(f.dst));
    if (!(f.bytes > 0) || !std::isfinite(f.bytes))
      throw std::invalid_argument(
          "scenario: flow bytes must be finite and > 0");
    if (!(f.start_s >= 0) || !std::isfinite(f.start_s))
      throw std::invalid_argument("scenario: flow start must be finite and >= 0");
  }
}

void ScenarioSession::apply_overlay(const Scenario& sc) {
  // Diff, don't rebuild: only the symmetric difference with the current
  // overlay touches the capacity epoch. The sets are scenario-sized (a
  // handful of links), so linear membership scans beat any index.
  const auto wants_failed = [&](int l) {
    return std::find(sc.fail_links.begin(), sc.fail_links.end(), l) !=
           sc.fail_links.end();
  };
  const auto& failed = fabric_.overlay().failed_link_ids();
  ov_failed_scratch_.assign(failed.begin(), failed.end());  // grow-only copy
  for (int l : ov_failed_scratch_)
    if (!wants_failed(l)) fabric_.restore_link(l);
  for (int l : sc.fail_links) fabric_.fail_link(l);

  const auto wants_override = [&](int l) {
    for (const auto& [ol, cap] : sc.capacity_overrides)
      if (ol == l) return true;
    return false;
  };
  const auto& overrides = fabric_.overlay().capacity_overrides();
  ov_caps_scratch_.assign(overrides.begin(), overrides.end());  // grow-only
  for (const auto& [l, cap] : ov_caps_scratch_)
    if (!wants_override(l)) fabric_.clear_link_capacity(l);
  for (const auto& [l, cap] : sc.capacity_overrides)
    fabric_.set_link_capacity(l, cap);
}

void ScenarioSession::start_group(std::size_t k) {
  const double t = start_time(start_order_[k]);
  net::FlowSim::StartBatch batch(*sim_);
  for (; k < start_order_.size() && start_time(start_order_[k]) == t; ++k) {
    const std::size_t i = start_order_[k];
    const FlowSpec& f = cur_sc_->flows[i];
    sim_->start(f.src, f.dst, f.bytes, [this, i] {
      cur_res_->completion_s[i] = eng_.now() - cur_t0_;
    });
  }
}

ScenarioResult ScenarioSession::run(const Scenario& sc) {
  ScenarioResult res;
  run(sc, res);
  return res;
}

void ScenarioSession::run(const Scenario& sc, ScenarioResult& out) {
  validate(sc);
  apply_overlay(sc);

  out.capacity_epoch = fabric_.capacity_epoch();
  out.completion_s.assign(sc.flows.size(), -1.0);
  out.makespan_s = 0;
  out.dropped = 0;
  const net::FlowSim::Stats before = sim_->stats();
  const std::uint64_t dropped_before = sim_->dropped_flows();

  // Engine time is monotone across the session's scenarios; everything the
  // caller sees is relative to this scenario's start.
  const double t0 = eng_.now();
  cur_sc_ = &sc;
  cur_res_ = &out;
  cur_t0_ = t0;
  // One engine event per distinct absolute start time, in time order; each
  // starts its flows in index order inside one FlowSim batch, so a burst of
  // same-instant starts pays one resolve. Equal times fire in insertion
  // order, and every completion event is inserted later, so the firing
  // order is the one a per-flow event would give. `start_order_` is sorted
  // in place (std::sort does not allocate) and both closures capture exactly
  // [this, index]: small enough for std::function's in-place buffer, so a
  // warmed session schedules and completes flows without touching the heap.
  start_order_.resize(sc.flows.size());
  std::iota(start_order_.begin(), start_order_.end(), std::size_t{0});
  std::sort(start_order_.begin(), start_order_.end(),
            [this](std::size_t a, std::size_t b) {
              const double ta = start_time(a), tb = start_time(b);
              return ta < tb || (ta == tb && a < b);
            });
  for (std::size_t k = 0; k < start_order_.size();) {
    const double t = start_time(start_order_[k]);
    eng_.schedule_at(t, [this, k] { start_group(k); });
    while (k < start_order_.size() && start_time(start_order_[k]) == t) ++k;
  }
  try {
    eng_.run();
  } catch (...) {
    // A mid-run throw (solver rejecting an unvalidated capacity override,
    // routing with no live route) abandons queued events and active flows
    // whose callbacks reference *this run's* scenario + result. Rebuild
    // engine + sim so nothing dangles into the next run, then let the
    // caller see the error.
    cur_sc_ = nullptr;
    cur_res_ = nullptr;
    reset_sim();
    throw;
  }
  cur_sc_ = nullptr;
  cur_res_ = nullptr;

  out.makespan_s = eng_.now() - t0;
  out.dropped = sim_->dropped_flows() - dropped_before;
  out.stats = stats_delta(sim_->stats(), before);
  ++scenarios_run_;
}

}  // namespace xscale::serve
