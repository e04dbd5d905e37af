#include "net/flowsim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "net/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/parallel.hpp"

namespace xscale::net {

namespace {
// A component re-solve replays its ledger prefix only when at least this many
// recorded levels lie below the cut: grouping the prefix costs O(members)
// before any level is skipped, which a one-level prefix does not pay back
// (DESIGN.md §9 gives the measured shares). A property of the input, not a
// tuning knob.
constexpr int kMinComponentReplayLevels = 2;
}  // namespace

void FlowSim::ensure_sized() {
  const std::size_t n = fabric_.topology().links().size();
  if (link_load_.size() == n) return;
  link_load_.assign(n, 0);
  flows_on_link_.assign(n, {});
  link_dirty_.assign(n, 0);
  link_visit_epoch_.assign(n, 0);
  link_local_id_.assign(n, 0);
  link_remap_epoch_.assign(n, 0);
  // Floor rarely-grown scratch capacities so one-off spikes (several flows
  // completing at the same instant) don't allocate mid-run.
  done_slots_.reserve(16);
  done_callbacks_.reserve(16);
  dropped_slots_.reserve(16);
  dropped_ids_.reserve(16);
}

int FlowSim::alloc_slot() {
  if (!free_slots_.empty()) {
    const int s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<int>(slots_.size() - 1);
}

void FlowSim::mark_dirty(int link) {
  const auto lu = static_cast<std::size_t>(link);
  if (link_dirty_[lu]) return;
  link_dirty_[lu] = 1;
  dirty_links_.push_back(link);
}

void FlowSim::clear_dirty() {
  for (int l : dirty_links_) link_dirty_[static_cast<std::size_t>(l)] = 0;
  dirty_links_.clear();
}

std::uint64_t FlowSim::start(int src, int dst, double bytes, Done on_done) {
  const int n_eps = fabric_.topology().num_endpoints();
  if (src < 0 || dst < 0 || src >= n_eps || dst >= n_eps)
    throw std::out_of_range("FlowSim::start: endpoint pair (" +
                            std::to_string(src) + ", " + std::to_string(dst) +
                            ") out of range [0, " + std::to_string(n_eps) + ")");
  ensure_sized();
  const int slot = alloc_slot();
  // Route straight into the slot's reusable path buffer. Floor its capacity
  // at the longest route (injection + valiant switch segment + ejection) so a
  // reused slot never grows through the 2→3→…→7 exact-size steps — after one
  // warm pass over the arena, routing touches no allocator.
  auto& path = slots_[static_cast<std::size_t>(slot)].path;
  if (path.capacity() < 8) path.reserve(8);
  fabric_.route_into(src, dst, rng_, &link_load_, path);
  return start_slot(slot, bytes, std::move(on_done));
}

std::uint64_t FlowSim::start_on_path(std::vector<int> path, double bytes,
                                     Done on_done) {
  // Checked before any state changes: a bad id would index the per-link
  // arrays out of bounds, and an empty path would sit active forever at
  // rate 0.
  if (path.empty())
    throw std::invalid_argument("FlowSim::start_on_path: empty path");
  const auto n = static_cast<int>(fabric_.topology().links().size());
  for (int l : path)
    if (l < 0 || l >= n)
      throw std::out_of_range("FlowSim::start_on_path: link id " +
                              std::to_string(l) + " out of range [0, " +
                              std::to_string(n) + ")");
  ensure_sized();
  const int slot = alloc_slot();
  slots_[static_cast<std::size_t>(slot)].path = std::move(path);
  return start_slot(slot, bytes, std::move(on_done));
}

void FlowSim::notify_capacity_change(const std::vector<int>& links) {
  ensure_sized();
  const auto n = static_cast<int>(link_dirty_.size());
  for (int l : links) {
    if (l < 0 || l >= n)
      throw std::out_of_range("notify_capacity_change: link id " +
                              std::to_string(l) + " out of range [0, " +
                              std::to_string(n) + ")");
  }
  if (active_count_ == 0) return;  // nothing to re-price
  // A pending uniform rate parked at an earlier instant was computed under
  // the old capacities and covers accrual up to now — apply it before the
  // re-resolve rewrites rates (same contract as start_slot).
  if (pending_uniform_ && eng_.now() != pending_time_) materialize_pending();
  for (int l : links)
    if (!flows_on_link_[static_cast<std::size_t>(l)].empty()) mark_dirty(l);
  if (dirty_links_.empty()) return;  // no active flow touches a changed link
  resolve_and_schedule();
}

std::uint64_t FlowSim::start_slot(int slot, double bytes, Done on_done) {
  // A pending uniform rate parked at an *earlier* instant covers exactly the
  // members that were active then — apply it before this flow joins the
  // active set (a same-instant pending stays parked: mid-instant joiners are
  // covered by the re-park the coming resolve performs).
  if (pending_uniform_ && eng_.now() != pending_time_) materialize_pending();
  Flow& f = slots_[static_cast<std::size_t>(slot)];
  assert(!f.path.empty());
  if (ledger_pass_.size() < slots_.size()) {
    ledger_pass_.resize(slots_.size(), 0);
    ledger_level_.resize(slots_.size(), 0);
  }
  ledger_pass_[static_cast<std::size_t>(slot)] = 0;  // a reused slot's stamp
  ++delta_.arrivals;
  delta_.arrival_slot = slot;
  const std::uint64_t id = next_id_++;
  const double total = std::max(bytes, 1.0);
  f.id = id;
  f.remaining = total;
  f.rate = 0.0;
  f.accrued_at = eng_.now();
  f.start_time = eng_.now();
  f.total_bytes = total;
  f.stalled = false;
  f.visit_epoch = 0;
  f.on_done = std::move(on_done);
  ++active_count_;
  active_order_.push_back(slot);  // ids are monotonic: append keeps id order
  obs::tracer().instant("net", "flow_start", eng_.now(),
                        {{"flow", static_cast<double>(id)},
                         {"bytes", total},
                         {"hops", static_cast<double>(f.path.size())}});
  static obs::Counter& started = obs::metrics().counter("net.flows_started");
  started.inc();
  insert_flow_links(slot, f);
  resolve_and_schedule();
  return id;
}

void FlowSim::insert_flow_links(int slot, const Flow& f) {
  if (live_link_in_.size() < flows_on_link_.size())
    live_link_in_.resize(flows_on_link_.size(), 0);
  for (int l : f.path) {
    const auto lu = static_cast<std::size_t>(l);
    ++link_load_[lu];
    if (!live_link_in_[lu]) {
      live_link_in_[lu] = 1;
      live_links_.push_back(l);
    }
    auto& on_link = flows_on_link_[lu];
    // Seed a link's incidence capacity on first growth: skips the 1→2→4→8
    // doubling chain every busy link would otherwise walk through, which is
    // the bulk of residual steady-state allocations under churn (capacities
    // are grow-only, so each link allocates here at most a handful of times
    // over a whole run).
    if (on_link.size() == on_link.capacity() && on_link.capacity() < 16)
      on_link.reserve(16);
    on_link.push_back(slot);
    mark_dirty(l);
  }
}

void FlowSim::remove_flow(int slot) {
  Flow& f = slots_[static_cast<std::size_t>(slot)];
  // Ledger delta: a removal-only replay needs every removed flow from one
  // live pass, and cuts at the lowest level among them (DESIGN.md §9).
  const std::uint64_t stamp = ledger_pass_[static_cast<std::size_t>(slot)];
  const int level = ledger_level_[static_cast<std::size_t>(slot)];
  if (delta_.removed++ == 0) {
    delta_.pass = stamp;
    delta_.min_level = level;
  } else {
    delta_.mixed |= stamp != delta_.pass;
    delta_.min_level = std::min(delta_.min_level, level);
  }
  delta_.mixed |= stamp <= ledger_floor_;
  const auto id_less = [this](int s, std::uint64_t id) {
    return slots_[static_cast<std::size_t>(s)].id < id;
  };
  for (int l : f.path) {
    const auto lu = static_cast<std::size_t>(l);
    --link_load_[lu];
    auto& on = flows_on_link_[lu];
    // Ordered erase: each link's incidence stays in ascending flow-id order
    // (inserts append, ids are monotonic), which is the transposed-incidence
    // order the CSR core freezes flows in — the warm-start solve iterates
    // these lists directly and must visit flows in exactly that order.
    auto it = std::lower_bound(on.begin(), on.end(), f.id, id_less);
    assert(it != on.end() && *it == slot);
    on.erase(it);
    mark_dirty(l);
  }
  auto ao = std::lower_bound(active_order_.begin(), active_order_.end(), f.id,
                             id_less);
  assert(ao != active_order_.end() && *ao == slot);
  active_order_.erase(ao);
  if (f.stalled) {
    f.stalled = false;
    --stalled_;
  }
  f.id = 0;
  f.rate = 0.0;
  f.on_done = nullptr;
  f.path.clear();  // keep capacity for slot reuse
  free_slots_.push_back(slot);
  --active_count_;
}

void FlowSim::accrue(Flow& f) {
  const double now = eng_.now();
  if (f.rate > 0.0 && now > f.accrued_at)
    f.remaining -= f.rate * (now - f.accrued_at);
  f.accrued_at = now;
}

void FlowSim::set_rate(std::uint64_t id, Flow& f, double rate) {
  // No 1 B/s floor: a zero rate means every byte is stuck behind a failed
  // link, and pretending otherwise hides the failure (satellite fix — the
  // old floor made such flows "complete" after simulated centuries).
  if (rate <= 0.0) rate = 0.0;
  // Unchanged rate: skip the write-back entirely. The drain law stays the
  // same linear function, so deferring accrual is exact — and because a
  // full re-solve recomputes untouched components to bitwise-equal rates,
  // incremental and full modes take this early-out at identical times,
  // keeping their remaining-byte arithmetic (and completion times)
  // bit-for-bit equal.
  if (rate == f.rate && (rate > 0.0 || f.stalled)) return;
  accrue(f);
  if (rate == 0.0) {
    if (!f.stalled) {
      f.stalled = true;
      ++stalled_;
      obs::tracer().instant("net", "flow_stall", eng_.now(),
                            {{"flow", static_cast<double>(id)},
                             {"remaining", f.remaining}});
      static obs::Counter& stalls = obs::metrics().counter("net.flow_stalls");
      stalls.inc();
    }
  } else if (f.stalled) {
    f.stalled = false;
    --stalled_;
    obs::tracer().instant("net", "flow_unstall", eng_.now(),
                          {{"flow", static_cast<double>(id)}, {"rate", rate}});
  }
  f.rate = rate;
}

void FlowSim::affected_component(double max_flows) {
  comp_truncated_ = false;
  comp_slots_.clear();
  ++visit_epoch_;
  link_q_.clear();
  for (int l : dirty_links_) {
    link_visit_epoch_[static_cast<std::size_t>(l)] = visit_epoch_;
    link_q_.push_back(l);
  }
  while (!link_q_.empty()) {
    const int l = link_q_.back();
    link_q_.pop_back();
    for (int s : flows_on_link_[static_cast<std::size_t>(l)]) {
      Flow& f = slots_[static_cast<std::size_t>(s)];
      if (f.visit_epoch == visit_epoch_) continue;
      f.visit_epoch = visit_epoch_;
      comp_slots_.push_back(s);
      // Warm-start dispatch only needs to know the component is oversized,
      // not its full membership: stop the BFS (and skip the sort — contents
      // become a size witness only) as soon as that is proven, which turns
      // an incast resolve's O(component) discovery into O(threshold).
      if (max_flows >= 0.0 &&
          static_cast<double>(comp_slots_.size()) > max_flows) {
        comp_truncated_ = true;
        link_q_.clear();
        return;
      }
      for (int pl : f.path) {
        const auto plu = static_cast<std::size_t>(pl);
        if (link_visit_epoch_[plu] != visit_epoch_) {
          link_visit_epoch_[plu] = visit_epoch_;
          link_q_.push_back(pl);
        }
      }
    }
  }
  std::sort(comp_slots_.begin(), comp_slots_.end(), [this](int a, int b) {
    return slots_[static_cast<std::size_t>(a)].id <
           slots_[static_cast<std::size_t>(b)].id;
  });
}

void FlowSim::component_from(int seed) {
  // Connected component containing `seed`, under the caller's current
  // `visit_epoch_` (marks persist across calls so a full-solve sweep visits
  // each component exactly once). Same traversal and ordering as
  // `affected_component`, seeded from a flow instead of dirty links.
  comp_slots_.clear();
  link_q_.clear();
  Flow& sf = slots_[static_cast<std::size_t>(seed)];
  sf.visit_epoch = visit_epoch_;
  comp_slots_.push_back(seed);
  for (int pl : sf.path) {
    const auto plu = static_cast<std::size_t>(pl);
    if (link_visit_epoch_[plu] != visit_epoch_) {
      link_visit_epoch_[plu] = visit_epoch_;
      link_q_.push_back(pl);
    }
  }
  while (!link_q_.empty()) {
    const int l = link_q_.back();
    link_q_.pop_back();
    for (int s : flows_on_link_[static_cast<std::size_t>(l)]) {
      Flow& f = slots_[static_cast<std::size_t>(s)];
      if (f.visit_epoch == visit_epoch_) continue;
      f.visit_epoch = visit_epoch_;
      comp_slots_.push_back(s);
      for (int pl : f.path) {
        const auto plu = static_cast<std::size_t>(pl);
        if (link_visit_epoch_[plu] != visit_epoch_) {
          link_visit_epoch_[plu] = visit_epoch_;
          link_q_.push_back(pl);
        }
      }
    }
  }
  std::sort(comp_slots_.begin(), comp_slots_.end(), [this](int a, int b) {
    return slots_[static_cast<std::size_t>(a)].id <
           slots_[static_cast<std::size_t>(b)].id;
  });
}

int FlowSim::ledger_prefix(const std::vector<int>& members,
                           bool allow_arrival, int* arrival) {
  *arrival = -1;
  if (delta_.mixed) return 0;
  std::uint64_t pass = 0;
  int cut = std::numeric_limits<int>::max();
  if (delta_.removed > 0 && delta_.arrivals == 0) {
    pass = delta_.pass;  // removal-only: replay the levels below k*
    cut = delta_.min_level;
  } else if (!(delta_.removed == 0 && delta_.arrivals == 1 && allow_arrival)) {
    return 0;  // anything but removal-only or one arrival solves cold
  }
  // Every member but the arrival must carry one live stamp (for an arrival,
  // whichever pass its first member carries).
  int max_level = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto su = static_cast<std::size_t>(members[i]);
    if (delta_.arrivals == 1 && members[i] == delta_.arrival_slot) {
      *arrival = static_cast<int>(i);
      continue;
    }
    if (pass == 0) pass = ledger_pass_[su];
    if (ledger_pass_[su] != pass) return 0;
    if (ledger_level_[su] < cut) max_level = std::max(max_level, ledger_level_[su]);
  }
  if (pass <= ledger_floor_ || max_level == 0) return 0;
  if (delta_.arrivals == 1 && *arrival < 0) return 0;
  // Renumber the recorded levels below the cut densely, in order: members
  // of other components froze at the levels that are missing here, and the
  // cold solve of these members never runs those iterations.
  if (level_rank_.size() < static_cast<std::size_t>(max_level) + 1)
    level_rank_.resize(static_cast<std::size_t>(max_level) + 1);
  std::fill(level_rank_.begin(), level_rank_.begin() + max_level + 1, 0);
  replay_level_.resize(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int lvl = ledger_level_[static_cast<std::size_t>(members[i])];
    const bool in_prefix = static_cast<int>(i) != *arrival && lvl < cut;
    replay_level_[i] = in_prefix ? lvl : 0;
    if (in_prefix) level_rank_[static_cast<std::size_t>(lvl)] = 1;
  }
  int levels = 0;
  for (std::size_t l = 1; l <= static_cast<std::size_t>(max_level); ++l)
    if (level_rank_[l]) level_rank_[l] = ++levels;
  for (int& lvl : replay_level_)
    if (lvl > 0) lvl = level_rank_[static_cast<std::size_t>(lvl)];
  return levels;
}

void FlowSim::solve_component(const std::vector<int>& comp, SolveStats* ss) {
  // Replay the ledger prefix this resolve's delta leaves intact (DESIGN.md
  // §9) when it spans enough levels to pay for the grouping.
  int arrival = -1;
  const std::size_t lvl_cap = replay_level_.capacity();
  const std::size_t rank_cap = level_rank_.capacity();
  const int levels = ledger_prefix(comp, true, &arrival);
  const bool use_prefix = levels >= kMinComponentReplayLevels;
  // Pack a compact sub-problem into the persistent CSR arena: only the
  // component's links, densely renumbered in first-encounter order
  // (ascending flow id), which makes the restricted solve's arithmetic
  // identical to the full solve's — within a component the full solver
  // performs exactly the same operations in the same order, and flows
  // outside it never touch these links. The link remap is epoch-stamped, so
  // packing costs O(component nnz) with no clearing pass.
  ++remap_epoch_;
  const std::size_t caps_cap = comp_caps_.capacity();
  const std::size_t ids_cap = comp_csr_.link_ids.capacity();
  const std::size_t off_cap = comp_csr_.offsets.capacity();
  const std::size_t rates_cap = comp_rates_.capacity();
  const std::size_t prev_cap = comp_prev_rate_.capacity();
  const std::size_t levels_cap = comp_levels_.capacity();
  comp_caps_.clear();
  comp_csr_.clear();
  comp_prev_rate_.clear();
  const auto& caps = fabric_.effective_capacities();
  for (int s : comp) {
    const Flow& f = slots_[static_cast<std::size_t>(s)];
    if (use_prefix) comp_prev_rate_.push_back(f.rate);
    for (int l : f.path) {
      const auto lu = static_cast<std::size_t>(l);
      if (link_remap_epoch_[lu] != remap_epoch_) {
        link_remap_epoch_[lu] = remap_epoch_;
        link_local_id_[lu] = static_cast<int>(comp_caps_.size());
        comp_caps_.push_back(caps[lu]);
      }
      comp_csr_.push_link(link_local_id_[lu]);
    }
    comp_csr_.end_path();
  }
  comp_rates_.resize(comp.size());
  comp_levels_.resize(comp.size());
  const FreezePrefix prefix{replay_level_.data(), comp_prev_rate_.data(),
                            levels, arrival};
  max_min_rates_csr(comp_caps_.data(), comp_caps_.size(), comp_csr_, nullptr,
                    comp_rates_.data(), ss, solve_scratch_,
                    use_prefix ? &prefix : nullptr, comp_levels_.data());
  // This solve is the members' new ledger entry.
  const std::uint64_t pass = ++pass_;
  for (std::size_t i = 0; i < comp.size(); ++i) {
    const auto su = static_cast<std::size_t>(comp[i]);
    ledger_pass_[su] = pass;
    ledger_level_[su] = comp_levels_[i];
  }
  if (ss->replayed_flows > 0) ++stats_.component_prefix_hits;
  stats_.replayed_flows += static_cast<std::uint64_t>(ss->replayed_flows);
  // A steady-state re-solve touches no allocator at all; count it. (The
  // count is thread-count independent — everything here runs on the
  // simulator's own thread against its own buffers.)
  const bool grew = solve_scratch_.last_solve_allocated ||
                    comp_caps_.capacity() != caps_cap ||
                    comp_csr_.link_ids.capacity() != ids_cap ||
                    comp_csr_.offsets.capacity() != off_cap ||
                    comp_rates_.capacity() != rates_cap ||
                    comp_prev_rate_.capacity() != prev_cap ||
                    comp_levels_.capacity() != levels_cap ||
                    replay_level_.capacity() != lvl_cap ||
                    level_rank_.capacity() != rank_cap;
  static obs::Counter& reuse =
      obs::metrics().counter("net.solver.scratch_reuse");
  if (!grew) reuse.inc();
  // Counted write-back: `applied` are results that change a rate, `skipped`
  // are provable no-ops (set_rate's own early-out condition, evaluated here
  // so both counters exist on every solve path). Reference mode
  // (`incremental_writeback = false`) still routes the no-ops through
  // set_rate — that is the whole-set write the differential test compares
  // against.
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < comp.size(); ++i) {
    Flow& f = slots_[static_cast<std::size_t>(comp[i])];
    const double r = comp_rates_[i];
    const bool noop = r == f.rate && (r > 0.0 || f.stalled);
    if (!noop) {
      set_rate(f.id, f, r);
      ++applied;
    } else if (!cfg_.incremental_writeback) {
      set_rate(f.id, f, r);
    }
  }
  note_writeback(applied, static_cast<std::uint64_t>(comp.size()) - applied);
}

bool FlowSim::warm_memo_lookup() {
  // The max-min solution is a pure function of (capacities, member paths in
  // ascending-id order): if the concatenated path stream of the active set
  // matches a cached generation under the same capacity epoch, its rate
  // vector applies verbatim — member *ids* may differ (a completed flow
  // replaced by an identically-routed one), positions and paths are what
  // determine the arithmetic.
  const std::uint64_t cap_epoch = fabric_.capacity_epoch();
  const std::size_t members = active_order_.size();
  for (WarmMemo& m : memo_) {
    if (!m.valid) continue;
    if (m.cap_epoch != cap_epoch) {
      // A capacity epoch that moved under a valid generation is an
      // invalidation: with per-overlay epochs (DESIGN.md §10) only THIS
      // session's fail/restore/override calls can trip it, which is exactly
      // what the serving-layer isolation tests count.
      ++stats_.warm_memo_stale;
      continue;
    }
    if (m.offsets.size() != members + 1) continue;
    bool match = true;
    for (std::size_t i = 0; i < members && match; ++i) {
      const Flow& f = slots_[static_cast<std::size_t>(active_order_[i])];
      const auto b = static_cast<std::size_t>(m.offsets[i]);
      const auto e = static_cast<std::size_t>(m.offsets[i + 1]);
      match = (e - b == f.path.size()) &&
              std::equal(f.path.begin(), f.path.end(), m.stream.begin() + b);
    }
    if (!match) continue;
    std::uint64_t applied = 0;
    for (std::size_t i = 0; i < members; ++i) {
      Flow& f = slots_[static_cast<std::size_t>(active_order_[i])];
      const double r = m.rates[i];
      const bool noop = r == f.rate && (r > 0.0 || f.stalled);
      if (!noop) {
        set_rate(f.id, f, r);
        ++applied;
      } else if (!cfg_.incremental_writeback) {
        set_rate(f.id, f, r);
      }
    }
    note_writeback(applied, static_cast<std::uint64_t>(members) - applied);
    return true;
  }
  return false;
}

void FlowSim::note_writeback(std::uint64_t applied, std::uint64_t skipped) {
  stats_.writeback_applied += applied;
  stats_.writeback_skipped += skipped;
  static obs::Counter& a =
      obs::metrics().counter("net.solver.writeback.applied");
  static obs::Counter& s =
      obs::metrics().counter("net.solver.writeback.skipped");
  a.inc(applied);
  s.inc(skipped);
}

double FlowSim::remaining_eff_at(const Flow& f, double t) const {
  if (!pending_uniform_) return remaining_at(f, t);
  if (pending_mixed_ || pending_rate_ != f.rate) {
    // Materialisation will accrue the old rate up to `pending_time_` and
    // drain at the pending rate from there; reproduce that two-segment law.
    double rem = f.remaining;
    if (f.rate > 0.0 && pending_time_ > f.accrued_at)
      rem -= f.rate * (pending_time_ - f.accrued_at);
    return rem - pending_rate_ * (t - pending_time_);
  }
  // Rate unchanged by the pending value: the linear drain law is unbroken
  // (the eager write-back would have early-outed without accruing).
  return remaining_at(f, t);
}

void FlowSim::materialize_pending() {
  // Apply the coalesced uniform rate exactly as the eager per-resolve
  // write-back would have: within one instant only the *first* rate change
  // performs accrual arithmetic (later segments are zero-width), and a flow
  // whose rate never differed from any value parked this instant was an
  // early-out throughout — so touching only (mixed || changed) flows is
  // bit-identical to the whole-set write it replaces.
  if (!pending_uniform_) return;
  pending_uniform_ = false;
  const double tp = pending_time_;
  const double v = pending_rate_;
  std::uint64_t applied = 0;
  for (int s : active_order_) {
    Flow& f = slots_[static_cast<std::size_t>(s)];
    if (pending_mixed_ || v != f.rate) {
      if (f.rate > 0.0 && tp > f.accrued_at)
        f.remaining -= f.rate * (tp - f.accrued_at);
      f.accrued_at = tp;
      if (v != f.rate) {
        f.rate = v;
        ++applied;
      }
    }
  }
  note_writeback(applied,
                 static_cast<std::uint64_t>(active_order_.size()) - applied);
}

int FlowSim::try_single_incremental(SolveStats* ss) {
  // Single-bottleneck verdict from the maintained top-2 share summary,
  // touching only this resolve's dirty links. Soundness rests on two facts:
  // clean links' shares are the very doubles the full scan would compute
  // (same capacity under an unmoved epoch, same crosser count), and a clean
  // link can never be the unique all-flows bottleneck (this resolve's
  // churned flow crosses the bottleneck, dirtying it). `pending` rates are
  // irrelevant here — the verdict reads only capacities and incidence
  // counts, both maintained eagerly.
  if (!sb_valid_ || stalled_ != 0 || sb_l1_ < 0) return -1;
  if (fabric_.capacity_epoch() != sb_cap_epoch_) {
    sb_valid_ = false;
    return -1;
  }
  const double inf = std::numeric_limits<double>::infinity();
  const bool l1_dirty = link_dirty_[static_cast<std::size_t>(sb_l1_)] != 0;
  const bool l2_dirty =
      sb_l2_ >= 0 && link_dirty_[static_cast<std::size_t>(sb_l2_)] != 0;
  // Exact minimum share over clean (non-dirty) links, and whether the
  // clean runner-up is also known exactly.
  double c1 = inf, c2 = inf;
  int c1l = -1, c2l = -1;
  bool c2_known = false;
  if (!l1_dirty) {
    c1 = sb_min1_;
    c1l = sb_l1_;
    if (sb_l2_ < 0 || !l2_dirty) {
      c2 = sb_l2_ >= 0 ? sb_min2_ : inf;
      c2l = sb_l2_;
      c2_known = true;
    }
  } else if (sb_l2_ >= 0 && !l2_dirty) {
    c1 = sb_min2_;
    c1l = sb_l2_;
  } else if (sb_l2_ >= 0) {
    // Both ranked links churned: the clean minimum is unknowable.
    sb_valid_ = false;
    return -1;
  } else {
    c2_known = true;  // the only live link was sb_l1_, now dirty: no clean links
  }

  // Fresh top-2 among dirty links (emptied links are no longer constraints;
  // their lazy compaction stays with the full scan).
  const auto& caps = fabric_.effective_capacities();
  double d1 = inf, d2 = inf;
  int d1l = -1, d2l = -1;
  for (int l : dirty_links_) {
    const auto lu = static_cast<std::size_t>(l);
    const std::size_t n = flows_on_link_[lu].size();
    if (n == 0) continue;
    const double c = caps[lu];
    if (!std::isfinite(c) || c < 0.0) return -1;  // full scan diagnoses
    const double share = std::max(0.0, c) / static_cast<double>(n);
    if (share < d1) {
      d2 = d1;
      d2l = d1l;
      d1 = share;
      d1l = l;
    } else if (share < d2) {
      d2 = share;
      d2l = l;
    }
  }

  const double m = std::min(c1, d1);
  if (!std::isfinite(m)) return -1;
  const double cutoff = m;  // exact ties only, matching the solver cores
  int verdict;
  if (c1 <= cutoff) {
    // A clean link fires. It cannot carry every active flow (the churned
    // flow would have dirtied it), so the full scan would reject too:
    // either several links fire or the firing one misses flows.
    verdict = 0;
  } else if (d2 <= cutoff) {
    verdict = 0;  // >= 2 dirty links fire
  } else if (flows_on_link_[static_cast<std::size_t>(d1l)].size() !=
             active_order_.size()) {
    verdict = 0;
  } else {
    verdict = 1;
  }

  // Refresh the summary to the exact post-churn top-2 where derivable:
  // merge the clean top-2 (partially known) with the dirty top-2.
  double n1, n2;
  int n1l, n2l;
  bool exact = true;
  if (d1 <= c1) {
    n1 = d1;
    n1l = d1l;
    if (d2 <= c1) {
      n2 = d2;
      n2l = d2l;
    } else {
      n2 = c1;
      n2l = c1l;
    }
  } else {
    n1 = c1;
    n1l = c1l;
    // Runner-up is min(d1, clean second) — needs the clean second exactly.
    if (c2_known && c2 <= d1) {
      n2 = c2;
      n2l = c2l;
    } else if (c2_known || d1 <= c2) {
      n2 = d1;
      n2l = d1l;
    } else {
      exact = false;
      n1 = n2 = 0.0;
      n1l = n2l = -1;
    }
  }
  if (exact && n1l >= 0) {
    sb_min1_ = n1;
    sb_l1_ = n1l;
    sb_min2_ = n2;
    sb_l2_ = std::isfinite(n2) ? n2l : -1;
    sb_updated_ = true;
  } else {
    sb_valid_ = false;
  }

  ++stats_.minshare_incr;
  static obs::Counter& incr =
      obs::metrics().counter("net.solver.minshare.incr_scan");
  incr.inc();
  if (verdict != 1) return verdict;
  // A zero uniform rate stalls every flow — that path (stall counters,
  // traces, Drop sweeps) must stay eager; let the full machinery run it.
  if (!(m > 0.0)) return -1;

  // Single bottleneck: park the uniform rate; same-instant re-parks coalesce
  // (zero-width segments do no accrual arithmetic in the eager path either).
  if (pending_uniform_ && eng_.now() != pending_time_) materialize_pending();
  if (!pending_uniform_) {
    pending_uniform_ = true;
    pending_time_ = eng_.now();
    pending_first_ = m;
    pending_mixed_ = false;
  } else {
    pending_mixed_ = pending_mixed_ || m != pending_first_;
  }
  pending_rate_ = m;
  if (ss) {
    ss->iterations = 1;
    ss->bottleneck_links = 1;
  }
  return 1;
}

bool FlowSim::warm_single_bottleneck(SolveStats* ss) {
  // Incast collapses the whole solve into its first iteration: one link is
  // the unique minimum-share bottleneck and every active flow crosses it, so
  // the cold solve freezes everybody at min_share in iteration 1 and stops.
  // Both conditions are checked here against the *initial* state (residual =
  // capacity, active weight = crosser count — both maintained persistently,
  // `flows_on_link_` sizes ARE the encounter-pass weights), which makes the
  // verdict independent of any visit order:
  //   - min over a set of ratios is exact and order-free, and each ratio
  //     uses the same expression and the same operands as the cold scan
  //     (capacity is exact, the accumulated 1.0-sum equals the list size);
  //   - "exactly one link within cutoff" means the cold firing scan, in
  //     *whatever* encounter order, skips every link before the firing one
  //     against unmutated state, fires it, freezes all flows (it crosses
  //     everyone), and then skips the rest at active weight zero.
  // Any failed condition returns false and the general path runs instead —
  // the check costs one O(live links) pass, no per-flow work.
  const auto& caps = fabric_.effective_capacities();
  const double inf = std::numeric_limits<double>::infinity();
  double min_share = inf, second_share = inf;
  int min_link = -1, second_link = -1;
  std::size_t w = 0;
  bool bad_capacity = false;
  for (std::size_t i = 0; i < live_links_.size(); ++i) {
    const int l = live_links_[i];
    const auto lu = static_cast<std::size_t>(l);
    const std::size_t n = flows_on_link_[lu].size();
    if (n == 0) {  // lazy compaction of links whose last crosser left
      live_link_in_[lu] = 0;
      continue;
    }
    live_links_[w++] = l;
    const double c = caps[lu];
    if (!std::isfinite(c) || c < 0.0) {
      // Defer the throw: `live_links_` is persistent incidence state and we
      // are mid-compaction — bailing here would leave duplicate entries past
      // `w` and an unshrunk size, poisoning every later resolve. Finish the
      // pass, restore the invariant, then report.
      bad_capacity = true;
      continue;
    }
    const double share = std::max(0.0, c) / static_cast<double>(n);
    if (share < min_share) {
      second_share = min_share;
      second_link = min_link;
      min_share = share;
      min_link = l;
    } else if (share < second_share) {
      second_share = share;
      second_link = l;
    }
  }
  live_links_.resize(w);
  if (bad_capacity)
    throw std::invalid_argument(
        "max_min_rates: capacities must be finite and >= 0");
  // The pass just computed the exact top-2 min shares over live links: store
  // them so the next resolve's incremental verdict can skip this scan.
  sb_min1_ = min_share;
  sb_l1_ = min_link;
  sb_min2_ = second_share;
  sb_l2_ = std::isfinite(second_share) ? second_link : -1;
  sb_cap_epoch_ = fabric_.capacity_epoch();
  sb_valid_ = min_link >= 0;
  sb_updated_ = true;
  ++stats_.minshare_full;
  static obs::Counter& full_scan =
      obs::metrics().counter("net.solver.minshare.full_scan");
  full_scan.inc();
  if (!std::isfinite(min_share)) return false;  // general path will diagnose
  const double cutoff = min_share;  // exact ties only, matching the cores
  // "Exactly one link fires" is a top-2 question: the minimum always fires,
  // so uniqueness is `second_share > cutoff` — same verdict as the old
  // counting pass, without re-walking the live list.
  if (second_share <= cutoff ||
      flows_on_link_[static_cast<std::size_t>(min_link)].size() !=
          active_order_.size())
    return false;
  if (ss) {
    ss->iterations = 1;
    ss->bottleneck_links = 1;
  }
  // Park, don't write: the closed form's uniform rate goes through the same
  // lazy coalescing as the incremental verdict, so even resolves that had to
  // pay this full scan (summary invalidated by churn on both ranked links)
  // contribute ~1 materialised write per churn instead of one per active
  // flow. A zero rate or a stalled survivor needs set_rate's stall
  // bookkeeping at *this* instant — those stay eager, as does reference
  // mode (`incremental_writeback = false`, the whole-set write).
  if (cfg_.incremental_writeback && stalled_ == 0 && min_share > 0.0) {
    if (pending_uniform_ && eng_.now() != pending_time_) materialize_pending();
    if (!pending_uniform_) {
      pending_uniform_ = true;
      pending_time_ = eng_.now();
      pending_first_ = min_share;
      pending_mixed_ = false;
    } else {
      pending_mixed_ = pending_mixed_ || min_share != pending_first_;
    }
    pending_rate_ = min_share;
    return true;
  }
  // Eager write: settle any parked rate first — the early-out comparison and
  // set_rate's accrual both read `f.rate`. (Reference mode never parks; this
  // matters for the zero-rate / stalled cases reached after a same-instant
  // park, e.g. a capacity failure landing in the instant of a start burst.)
  materialize_pending();
  std::uint64_t applied = 0;
  for (int s : active_order_) {
    Flow& f = slots_[static_cast<std::size_t>(s)];
    const bool noop = min_share == f.rate && (min_share > 0.0 || f.stalled);
    if (!noop) {
      set_rate(f.id, f, min_share);
      ++applied;
    } else if (!cfg_.incremental_writeback) {
      set_rate(f.id, f, min_share);
    }
  }
  note_writeback(applied,
                 static_cast<std::uint64_t>(active_order_.size()) - applied);
  return true;
}

void FlowSim::warm_solve(SolveStats* ss) {
  // Whole-active-set re-solve without leaving the simulator's persistent
  // state: no BFS completion, no id sort, no CSR re-pack, no link renumber.
  // `active_order_` is already the cold solve's flow visit order and each
  // `flows_on_link_` list is already in the cold solve's
  // transposed-incidence order (ascending flow id), so running the
  // water-filling loop of `max_min_rates_csr` directly over them performs
  // the same arithmetic in the same order — rates are bit-identical to the
  // cold path (the differential suite pins this). Every flow is
  // unit-weight here; the frozen-prefix replay relies on that.
  const std::size_t members = active_order_.size();
  const std::uint64_t cap_epoch = fabric_.capacity_epoch();
  static obs::Counter& warm_hits =
      obs::metrics().counter("net.solver.warmstart.hit");
  static obs::ShardedStats& frontier_stat =
      obs::metrics().stats("net.solver.frontier_size");
  warm_hits.inc();

  // A conclusive incremental "no" verdict from `try_single_incremental`
  // makes the full O(live links) scan pointless this resolve.
  if (!sb_skip_full_ && warm_single_bottleneck(ss)) {
    ++stats_.warm_single_hits;
    frontier_stat.add(0.0);
    retire_ledger();  // rates set without levels
    return;
  }

  // From here on the solve compares against and writes `f.rate` (memo
  // replay and the general water-filling both go through set_rate): the
  // parked uniform rate must be settled first or the early-out comparisons
  // and accrual would read stale values.
  materialize_pending();

  if (warm_memo_lookup()) {
    ++stats_.warm_memo_hits;
    frontier_stat.add(0.0);
    retire_ledger();  // rates set without levels
    return;
  }

  if (warm_batch_.size() < slots_.size()) {
    warm_batch_.resize(slots_.size(), 0);
    warm_rate_.resize(slots_.size(), 0.0);
  }
  const auto& caps = fabric_.effective_capacities();
  if (warm_resid_.size() < caps.size()) {
    warm_resid_.resize(caps.size(), 0.0);
    warm_aw_.resize(caps.size(), 0.0);
  }

  // Encounter pass: residual capacity, unfrozen weight and the active-link
  // list in first-seen order over flows in ascending id — exactly how the
  // CSR core initialises its scratch from a packed problem. Since ISSUE 10
  // warm_resid_/warm_aw_ are POSITION-indexed (dense SoA parallel to
  // warm_links_, contiguous for the scan kernel); link_local_id_ under the
  // current remap epoch maps link id -> position, exactly as the component
  // packer uses it.
  ++remap_epoch_;
  warm_links_.clear();
  for (int s : active_order_) {
    for (int l : slots_[static_cast<std::size_t>(s)].path) {
      const auto lu = static_cast<std::size_t>(l);
      if (link_remap_epoch_[lu] != remap_epoch_) {
        link_remap_epoch_[lu] = remap_epoch_;
        const double c = caps[lu];
        if (!std::isfinite(c) || c < 0.0)
          throw std::invalid_argument(
              "max_min_rates: capacities must be finite and >= 0");
        const std::size_t p = warm_links_.size();
        link_local_id_[lu] = static_cast<int>(p);
        warm_resid_[p] = c;
        warm_aw_[p] = 1.0;
        warm_links_.push_back(l);
      } else {
        warm_aw_[static_cast<std::size_t>(link_local_id_[lu])] += 1.0;
      }
    }
  }

  // Tandem compaction of the dense block (replaces the id-indexed erase):
  // links whose unfrozen-crosser count hit zero leave the list, survivors
  // keep first-seen order and get re-pointed positions. Unit weights make
  // the threshold exact — warm_aw_ holds whole numbers, so <= 1e-12 means
  // exactly zero, and an erased link can never be crossed by a flow that
  // freezes later (no unfrozen flow crosses it), so its stamp is cleared
  // rather than re-pointed.
  auto compact_live = [&] {
    std::size_t w = 0;
    for (std::size_t i = 0; i < warm_links_.size(); ++i) {
      const int l = warm_links_[i];
      const auto lu = static_cast<std::size_t>(l);
      if (warm_aw_[i] <= 1e-12) {
        link_remap_epoch_[lu] = 0;
        continue;
      }
      warm_links_[w] = l;
      warm_resid_[w] = warm_resid_[i];
      warm_aw_[w] = warm_aw_[i];
      link_local_id_[lu] = static_cast<int>(w);
      ++w;
    }
    warm_links_.resize(w);
  };

  // The prefix decision reads the ledger, so it precedes this pass's stamps.
  int no_arrival = -1;
  const int levels = ledger_prefix(active_order_, false, &no_arrival);
  ++pass_;
  std::size_t remaining = members;
  std::int64_t iterations = 0;
  std::int64_t bottlenecks = 0;
  // Change-list: flows whose frozen rate will differ from the currently
  // applied one, recorded at freeze time (f.rate is untouched until the
  // final write-back, so the set_rate early-out condition evaluated here is
  // exactly the one the write-back would hit). Replayed flows are never
  // pushed: a replay freezes each flow at its own current `f.rate`, and a
  // live rate-0 flow is always stalled after its first applied solve, so
  // the early-out condition provably holds for them.
  changed_slots_.clear();

  // Frozen-prefix replay from the ledger, removal-only deltas: with k* the
  // minimum freeze level among the removed flows, every freeze below level
  // k* is provably bit-unchanged (DESIGN.md §9 gives the argument), so
  // re-apply the recorded levels in order instead of re-deriving them.
  // `f.rate` still holds the recorded rate of every replayed flow: every
  // resolve that sets rates either writes the ledger or retires it.
  std::size_t replayed = 0;
  if (levels > 0) {
    group_by_level(replay_level_.data(), members, levels, replay_off_,
                   replay_order_);
    for (int k = 1; k <= levels; ++k) {
      for (int gi = replay_off_[static_cast<std::size_t>(k)];
           gi < replay_off_[static_cast<std::size_t>(k) + 1]; ++gi) {
        const int s = active_order_[static_cast<std::size_t>(
            replay_order_[static_cast<std::size_t>(gi)])];
        const auto su = static_cast<std::size_t>(s);
        const Flow& f = slots_[su];
        ledger_pass_[su] = pass_;
        ledger_level_[su] = k;
        warm_rate_[su] = f.rate;
        for (int l : f.path) {
          // Replayed flows' links are all in this epoch's encounter set, and
          // no compaction has run yet, so the position is always live.
          const auto p = static_cast<std::size_t>(
              link_local_id_[static_cast<std::size_t>(l)]);
          warm_resid_[p] -= f.rate;
          warm_aw_[p] -= 1.0;
        }
      }
    }
    replayed = static_cast<std::size_t>(replay_off_[static_cast<std::size_t>(levels) + 1]);
    remaining -= replayed;
    // One stable compaction reproduces the incremental per-iteration erases
    // the cold solve performs across the replayed levels (unit weights make
    // the threshold exact: active weights are whole numbers, so <= 1e-12
    // means exactly zero at every intermediate step too).
    compact_live();
    // Iteration parity with the cold solve: it runs exactly the replayed
    // levels before reaching new work.
    iterations = levels;
    ++stats_.warm_prefix_hits;
    stats_.replayed_flows += replayed;
  }

  const double inf = std::numeric_limits<double>::infinity();
  // Same dispatched kernel as the CSR core: a branch-free sweep over the
  // dense position-indexed block (simd.hpp pins scalar == AVX2 bitwise).
  const MinShareScanFn kernel = min_share_scan();
  const SolverTuning& tun = solver_tuning();
  auto scan_min = [&](std::size_t b, std::size_t e) {
    return kernel(warm_resid_.data(), warm_aw_.data(), b, e);
  };

  std::int64_t parallel_scans = 0;
  while (remaining > 0) {
    ++iterations;
    const std::size_t n_active = warm_links_.size();
    const bool par_scan = n_active >= tun.parallel_scan_threshold;
    if (par_scan) ++parallel_scans;
    const double min_share =
        par_scan ? sim::parallel_reduce(
                       n_active, tun.scan_grain, inf, scan_min,
                       [](double a, double b) { return std::min(a, b); })
                 : scan_min(0, n_active);
    if (!std::isfinite(min_share))
      throw std::runtime_error(
          "max_min_rates: no finite bottleneck share for remaining flows");
    const double cutoff = min_share;  // exact ties only, matching the cores
    const int level = static_cast<int>(iterations);
    for (std::size_t pi = 0; pi < n_active; ++pi) {
      const double aw = warm_aw_[pi];
      if (aw <= 0.0) continue;
      if (std::max(0.0, warm_resid_[pi]) / aw > cutoff) continue;
      const auto lu = static_cast<std::size_t>(warm_links_[pi]);
      ++bottlenecks;
      const auto& on = flows_on_link_[lu];
      // Same serial-vs-batch split as the CSR core (see solver.hpp on why
      // the batch path is bit-identical); unit rates make the per-link
      // subtraction values within one batch all equal to min_share.
      std::size_t batch = 0;
      if (n_active >= tun.parallel_scan_threshold) {
        for (int s : on)
          if (ledger_pass_[static_cast<std::size_t>(s)] != pass_) ++batch;
      }
      if (batch < tun.parallel_update_min) {
        for (int s : on) {
          const auto su = static_cast<std::size_t>(s);
          if (ledger_pass_[su] == pass_) continue;
          ledger_pass_[su] = pass_;
          ledger_level_[su] = level;
          warm_rate_[su] = min_share;
          const Flow& ff = slots_[su];
          if (!(min_share == ff.rate && (min_share > 0.0 || ff.stalled)))
            changed_slots_.push_back(s);
          --remaining;
          for (int pl : slots_[su].path) {
            // Every link of a flow unfrozen until now still has unfrozen
            // crossers, so it survived every compaction and its position
            // under the current epoch is live (unit-weight argument above).
            const auto p = static_cast<std::size_t>(
                link_local_id_[static_cast<std::size_t>(pl)]);
            warm_resid_[p] -= min_share;
            warm_aw_[p] -= 1.0;
          }
        }
      } else {
        ++warm_batch_epoch_;
        for (int s : on) {
          const auto su = static_cast<std::size_t>(s);
          if (ledger_pass_[su] == pass_) continue;
          ledger_pass_[su] = pass_;
          ledger_level_[su] = level;
          warm_rate_[su] = min_share;
          warm_batch_[su] = warm_batch_epoch_;
          const Flow& ff = slots_[su];
          if (!(min_share == ff.rate && (min_share > 0.0 || ff.stalled)))
            changed_slots_.push_back(s);
          --remaining;
        }
        sim::parallel_for(
            n_active, tun.scan_grain, [&](std::size_t b, std::size_t e) {
              for (std::size_t i = b; i < e; ++i) {
                const auto lu2 = static_cast<std::size_t>(warm_links_[i]);
                for (int s : flows_on_link_[lu2]) {
                  const auto su = static_cast<std::size_t>(s);
                  if (warm_batch_[su] != warm_batch_epoch_) continue;
                  warm_resid_[i] -= warm_rate_[su];
                  warm_aw_[i] -= 1.0;
                }
              }
            });
      }
    }
    compact_live();
  }

  // Memo for the next resolve's replay path, then apply rates (set_rate
  // early-outs keep accrual schedules bitwise aligned with the cold path).
  WarmMemo& m = memo_[memo_next_];
  memo_next_ ^= 1;
  m.valid = true;
  m.cap_epoch = cap_epoch;
  m.stream.clear();
  m.offsets.clear();
  m.rates.clear();
  m.offsets.push_back(0);
  for (int s : active_order_) {
    const Flow& f = slots_[static_cast<std::size_t>(s)];
    m.stream.insert(m.stream.end(), f.path.begin(), f.path.end());
    m.offsets.push_back(static_cast<int>(m.stream.size()));
    m.rates.push_back(warm_rate_[static_cast<std::size_t>(s)]);
  }

  const std::size_t frontier = members - replayed;
  stats_.frontier_flows += frontier;
  frontier_stat.add(static_cast<double>(frontier));
  if (ss) {
    ss->iterations = iterations;
    ss->bottleneck_links = bottlenecks;
    ss->parallel_scans = parallel_scans;
  }

  if (cfg_.incremental_writeback) {
    // Only flows whose rate actually moves reach set_rate; the order is
    // freeze order rather than ascending id, which is immaterial — each
    // write touches one flow's independent state at one instant.
    for (int s : changed_slots_) {
      Flow& f = slots_[static_cast<std::size_t>(s)];
      set_rate(f.id, f, warm_rate_[static_cast<std::size_t>(s)]);
    }
    note_writeback(changed_slots_.size(), members - changed_slots_.size());
  } else {
    std::uint64_t applied = 0;
    for (int s : active_order_) {
      Flow& f = slots_[static_cast<std::size_t>(s)];
      const double r = warm_rate_[static_cast<std::size_t>(s)];
      if (!(r == f.rate && (r > 0.0 || f.stalled))) ++applied;
      set_rate(f.id, f, r);
    }
    note_writeback(applied, members - applied);
  }
}

void FlowSim::resolve_and_schedule() {
  if (has_pending_event_) {
    eng_.cancel(pending_event_);
    has_pending_event_ = false;
  }
  if (active_count_ == 0) {
    clear_dirty();
    sb_valid_ = false;  // incidence changed with no verification to refresh it
    delta_ = {};
    return;
  }
  ++stats_.resolves;
  // Stamps recorded under other capacities describe another problem.
  if (fabric_.capacity_epoch() != ledger_cap_epoch_) {
    ledger_cap_epoch_ = fabric_.capacity_epoch();
    retire_ledger();
  }

  bool full = !cfg_.incremental;
  bool warm = false;
  bool lazy = false;  // single-bottleneck verdict resolved without a solve
  sb_skip_full_ = false;
  sb_updated_ = false;
  SolveStats ss;
  if (full) {
    ++stats_.full_solves;
    comp_slots_.clear();
  } else {
    if (cfg_.warm_start && cfg_.incremental_writeback) {
      // Incremental single-bottleneck verdict from the maintained top-2
      // share summary: a "yes" skips the BFS, the O(live links) scan AND
      // the write-back — the uniform rate is parked for lazy,
      // once-per-instant materialisation.
      const int verdict = try_single_incremental(&ss);
      if (verdict == 1) {
        lazy = true;
        warm = true;
        comp_slots_.clear();
        ++stats_.warm_solves;
        ++stats_.warm_single_hits;
        retire_ledger();  // rates set without levels
        static obs::Counter& warm_hits =
            obs::metrics().counter("net.solver.warmstart.hit");
        static obs::ShardedStats& frontier_stat =
            obs::metrics().stats("net.solver.frontier_size");
        warm_hits.inc();
        frontier_stat.add(0.0);
      } else if (verdict == 0) {
        sb_skip_full_ = true;
      }
    }
    if (!lazy) {
      // The parked uniform rate (if any) is NOT applied here: the BFS below
      // reads only incidence, and a bailed verdict usually lands back in the
      // closed form, which re-parks. Each eager path that really compares or
      // writes `f.rate` materialises at its own entry instead — this is what
      // keeps same-instant start bursts (scenario injection, the bench ramp)
      // from paying one whole-set write per bailed verdict.
      // With warm start enabled the BFS may stop early: it only has to
      // prove the component oversized — the warm solve re-derives
      // membership from `active_order_` itself, so `comp_slots_` is just a
      // size lower bound.
      const double limit =
          cfg_.fallback_fraction * static_cast<double>(active_count_);
      affected_component(cfg_.warm_start ? limit : -1.0);
      stats_.largest_component = std::max<std::uint64_t>(
          stats_.largest_component, comp_slots_.size());
      if (comp_truncated_ ||
          static_cast<double>(comp_slots_.size()) > limit) {
        if (cfg_.warm_start) {
          warm = true;
          ++stats_.warm_solves;
        } else {
          full = true;
          ++stats_.fallback_solves;
          static obs::Counter& warm_fb =
              obs::metrics().counter("net.solver.warmstart.fallback");
          warm_fb.inc();
        }
      }
    }
  }

  if (full) materialize_pending();
  if (warm && !lazy) {
    warm_solve(&ss);
  } else if (full) {
    // Re-solve the whole active set, decomposed into connected components
    // (flows transitively sharing links) discovered in ascending
    // first-flow-id order. Per-component solutions equal the global solution
    // bit-for-bit (the PR 4 component-vs-global property pins this), each
    // component goes through the persistent CSR path, and stats sum in
    // component order — same rates and same counts as the old
    // `max_min_rates_components` route, but a fallback solve now allocates
    // nothing once warm either.
    //
    // The reference path replays nothing: with every stamp retired first,
    // no component finds a live prefix. The passes it records are per
    // component, so the stamps it leaves are valid ledger entries.
    retire_ledger();
    order_.clear();
    for (std::size_t s = 0; s < slots_.size(); ++s)
      if (slots_[s].id != 0) order_.push_back(static_cast<int>(s));
    std::sort(order_.begin(), order_.end(), [this](int a, int b) {
      return slots_[static_cast<std::size_t>(a)].id <
             slots_[static_cast<std::size_t>(b)].id;
    });
    ++visit_epoch_;
    for (int seed : order_) {
      if (slots_[static_cast<std::size_t>(seed)].visit_epoch == visit_epoch_)
        continue;
      component_from(seed);
      SolveStats cs;
      solve_component(comp_slots_, &cs);
      ss.iterations += cs.iterations;
      ss.bottleneck_links += cs.bottleneck_links;
      ss.parallel_scans += cs.parallel_scans;
    }
    comp_slots_ = order_;  // solved set, for the drop sweep below
  } else if (!comp_slots_.empty()) {
    ++stats_.component_solves;
    materialize_pending();  // solve_component compares and writes `f.rate`
    solve_component(comp_slots_, &ss);
  }
  const std::vector<int>& solved = warm ? active_order_ : comp_slots_;
  stats_.flows_solved += solved.size();
  stats_.solver_iterations += static_cast<std::uint64_t>(ss.iterations);
  stats_.bottleneck_links += static_cast<std::uint64_t>(ss.bottleneck_links);
  stats_.parallel_scans += static_cast<std::uint64_t>(ss.parallel_scans);

  // Per-solve observability: component size, which solve path ran, and
  // solver effort — the numbers that explain where resolve time goes.
  // `reason` records *why* a full solve was taken: 0 = no fallback (warm or
  // restricted solve), 1 = incremental disabled, 2 = component exceeded
  // fallback_fraction with warm start disabled.
  obs::tracer().instant(
      "net",
      warm ? "resolve_warm" : full ? "resolve_full" : "resolve_component",
      eng_.now(),
      {{"flows", static_cast<double>(solved.size())},
       {"active", static_cast<double>(active_count_)},
       {"iterations", static_cast<double>(ss.iterations)},
       {"reason", full ? (!cfg_.incremental ? 1.0 : 2.0) : 0.0}});
  {
    static obs::Counter& resolves = obs::metrics().counter("net.resolves");
    static obs::Counter& fulls = obs::metrics().counter("net.full_solves");
    static obs::Counter& iters =
        obs::metrics().counter("net.solver.iterations");
    static obs::Counter& bnecks =
        obs::metrics().counter("net.solver.bottleneck_links");
    static obs::ShardedStats& comp_size =
        obs::metrics().stats("net.solve_component_flows");
    static obs::Gauge& active = obs::metrics().gauge("net.active_flows");
    resolves.inc();
    if (full) fulls.inc();
    iters.inc(static_cast<std::uint64_t>(ss.iterations));
    bnecks.inc(static_cast<std::uint64_t>(ss.bottleneck_links));
    comp_size.add(static_cast<double>(solved.size()));
    active.set(static_cast<double>(active_count_));
  }

  // Zero-rate flows: under Drop, remove them now. Their rate is 0, so they
  // consume no capacity — removal provably leaves every other rate unchanged
  // (in the water-filling they freeze at share 0 in the first iteration and
  // subtract nothing), so no re-solve is needed.
  dropped_slots_.clear();
  dropped_ids_.clear();
  // Under a parked uniform rate the sweep is skipped as provably empty: the
  // pending rate is positive and covers every active flow, so the eager
  // write would have left no zero-rate flows (reading `f.rate` here would
  // see stale values). This covers both park sites — the incremental
  // verdict and the closed form inside the warm solve.
  if (cfg_.stall_policy == StallPolicy::Drop && !pending_uniform_) {
    for (int s : solved)
      if (slots_[static_cast<std::size_t>(s)].rate <= 0.0)
        dropped_slots_.push_back(s);
    for (int s : dropped_slots_) {
      const std::uint64_t id = slots_[static_cast<std::size_t>(s)].id;
      obs::tracer().instant("net", "flow_drop", eng_.now(),
                            {{"flow", static_cast<double>(id)}});
      dropped_ids_.push_back(id);
      remove_flow(s);
      ++dropped_;
    }
    static obs::Counter& drops = obs::metrics().counter("net.flows_dropped");
    drops.inc(dropped_slots_.size());
    if (!dropped_slots_.empty()) retire_ledger();  // removed without a solve
  }

  const double now = eng_.now();
  double next_done = std::numeric_limits<double>::infinity();
  if (pending_uniform_) {
    // Every active flow's effective rate is the (positive) pending value;
    // `remaining_eff_at` is bitwise the remaining the eager write-back would
    // have produced, so the completion horizon is identical.
    for (int s : active_order_) {
      const Flow& f = slots_[static_cast<std::size_t>(s)];
      next_done =
          std::min(next_done, remaining_eff_at(f, now) / pending_rate_);
    }
  } else {
    for (const Flow& f : slots_)
      if (f.id != 0 && f.rate > 0.0)
        next_done = std::min(next_done, remaining_at(f, now) / f.rate);
  }

  // Summary upkeep: a resolve that neither merged nor rebuilt the top-2
  // leaves it stale against the new incidence; drops after the verdict do
  // the same. Either way the next resolve must take the full scan.
  if (!sb_updated_ || !dropped_slots_.empty()) sb_valid_ = false;

  clear_dirty();

  if (std::isfinite(next_done)) {
    pending_event_ = eng_.schedule_in(std::max(next_done, 0.0), [this] {
      has_pending_event_ = false;
      // Completions read and remove flows: settle the parked uniform rate
      // first so `remaining`/`rate` fields are the eager path's values.
      materialize_pending();
      const double t = eng_.now();
      // Complete every flow that has drained (ties finish together).
      done_slots_.clear();
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        const Flow& f = slots_[s];
        if (f.id == 0 || f.rate <= 0.0) continue;
        if (remaining_at(f, t) <= 1e-6 * std::max(1.0, f.rate))
          done_slots_.push_back(static_cast<int>(s));
      }
      std::sort(done_slots_.begin(), done_slots_.end(), [this](int a, int b) {
        return slots_[static_cast<std::size_t>(a)].id <
               slots_[static_cast<std::size_t>(b)].id;
      });
      done_callbacks_.clear();
      static obs::Counter& completed =
          obs::metrics().counter("net.flows_completed");
      for (int s : done_slots_) {
        Flow& f = slots_[static_cast<std::size_t>(s)];
        // The flow's whole lifetime as one span: start -> last byte drained.
        obs::tracer().span("net", "flow", f.start_time, t - f.start_time,
                           {{"flow", static_cast<double>(f.id)},
                            {"bytes", f.total_bytes},
                            {"hops", static_cast<double>(f.path.size())}});
        completed.inc();
        done_callbacks_.push_back(std::move(f.on_done));
        remove_flow(s);
      }
      resolve_and_schedule();
      for (auto& cb : done_callbacks_)
        if (cb) cb();
      done_callbacks_.clear();
    });
    has_pending_event_ = true;
  }
  // else: every active flow is stalled; nothing to schedule. They recover
  // when a future add/remove dirties their component after link repair.

  // This resolve consumed the delta unless it found nothing to solve; then
  // its removals stay on record for the next resolve's prefix decision.
  if (warm || full || !comp_slots_.empty()) delta_ = {};

  if (stall_hook_ && !dropped_ids_.empty()) {
    // Steal the list: the hook may re-enter (start replacement flows) and
    // clobber the member buffer mid-iteration.
    auto ids = std::move(dropped_ids_);
    dropped_ids_ = {};
    for (std::uint64_t id : ids) stall_hook_(id);
  }
}

void FlowSim::for_each_flow(
    const std::function<void(std::uint64_t, const std::vector<int>&, double,
                             double)>& fn) const {
  const double now = eng_.now();
  for (int s : active_order_) {
    const Flow& f = slots_[static_cast<std::size_t>(s)];
    fn(f.id, f.path, remaining_eff_at(f, now),
       pending_uniform_ ? pending_rate_ : f.rate);
  }
}

}  // namespace xscale::net
