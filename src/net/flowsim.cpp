#include "net/flowsim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xscale::net {

namespace {
// A re-solve, component or whole-set, replays its ledger prefix only when at
// least this many recorded levels lie below the cut: grouping the prefix
// costs O(members) before any level is skipped, which a one-level prefix
// does not pay back (DESIGN.md §9 gives the measured shares). A property of
// the input, not a tuning knob.
constexpr int kMinReplayLevels = 2;

// Slots in a link's first incidence buffer: 24 bytes, the usable size of
// the smallest block glibc's malloc hands out (a 32-byte chunk). Buffers are
// grow-only, so every link a simulator ever touches keeps its first buffer
// for the run: at 16 slots (an 80-byte chunk) serve_whatif's simulators,
// whose random scenarios keep visiting new links, grew by that much per
// link visited.
constexpr std::size_t kIncidenceFirst = 6;

void check_bytes(double bytes, const char* who) {
  if (!std::isfinite(bytes))
    throw std::invalid_argument(std::string(who) +
                                ": bytes must be finite, got " +
                                std::to_string(bytes));
}
}  // namespace

void FlowSim::ensure_sized() {
  const std::size_t n = fabric_.topology().links().size();
  if (link_load_.size() == n) return;
  link_load_.assign(n, 0);
  flows_on_link_.assign(n, {});
  link_dirty_.assign(n, 0);
  link_visit_epoch_.assign(n, 0);
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
  // A NaN or infinite size would never drain: the flow would hold its links
  // forever without completing or stalling.
  check_bytes(bytes, "FlowSim::start");
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
  try {
    fabric_.route_into(src, dst, rng_, &link_load_, path);
  } catch (...) {
    // No live route: hand the slot back so the throw changes nothing.
    path.clear();
    free_slots_.push_back(slot);
    throw;
  }
  return start_slot(slot, bytes, std::move(on_done));
}

std::uint64_t FlowSim::start_on_path(std::vector<int> path, double bytes,
                                     Done on_done) {
  // Checked before any state changes: a bad id would index the per-link
  // arrays out of bounds, and an empty path would sit active forever at
  // rate 0.
  check_bytes(bytes, "FlowSim::start_on_path");
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
  if (batch_depth_ > 0 && !crosses_dead_link(f))
    resolve_owed_ = true;  // the batch's close resolves for this start
  else
    resolve_and_schedule();
  return id;
}

bool FlowSim::crosses_dead_link(const Flow& f) const {
  if (cfg_.stall_policy != StallPolicy::Drop) return false;
  const auto& caps = fabric_.effective_capacities();
  for (int l : f.path)
    if (!(caps[static_cast<std::size_t>(l)] > 0.0)) return true;
  return false;
}

FlowSim::StartBatch::StartBatch(FlowSim& sim)
    : sim_(sim), uncaught_(std::uncaught_exceptions()) {
  ++sim_.batch_depth_;
}

FlowSim::StartBatch::~StartBatch() noexcept(false) {
  sim_.close_batch(std::uncaught_exceptions() > uncaught_);
}

void FlowSim::close_batch(bool unwinding) {
  if (--batch_depth_ > 0 || !resolve_owed_) return;
  if (!unwinding) {
    resolve_and_schedule();
    return;
  }
  // A throw is unwinding through the batch: do not solve now (the solve may
  // throw too). The started flows are active and their links dirty; replace
  // the completion event, computed without them, by a resolve at this
  // instant. Any resolve before it fires cancels it as its own.
  if (has_pending_event_) eng_.cancel(pending_event_);
  pending_event_ = eng_.schedule_in(0.0, [this] {
    has_pending_event_ = false;
    resolve_and_schedule();
  });
  has_pending_event_ = true;
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
    // Incidence capacity is grow-only. A link's first buffer holds
    // kIncidenceFirst slots: as much as the smallest heap block, so a link
    // touched once costs no more than one slot would, and busy links skip
    // the 1->2->4 doubling steps (steady churn stops allocating once warm).
    auto& on_link = flows_on_link_[lu];
    if (on_link.capacity() == 0) on_link.reserve(kIncidenceFirst);
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
    // (inserts append, ids are monotonic), so the binary search finds it.
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

void FlowSim::change_rate(Flow& f, double rate) {
  // No 1 B/s floor: a zero rate means every byte is stuck behind a failed
  // link, and pretending otherwise hides the failure (the old floor made
  // such flows "complete" after simulated centuries).
  if (rate <= 0.0) rate = 0.0;
  accrue(f);
  if (rate == 0.0) {
    if (!f.stalled) {
      f.stalled = true;
      ++stalled_;
      obs::tracer().instant("net", "flow_stall", eng_.now(),
                            {{"flow", static_cast<double>(f.id)},
                             {"remaining", f.remaining}});
      static obs::Counter& stalls = obs::metrics().counter("net.flow_stalls");
      stalls.inc();
    }
  } else if (f.stalled) {
    f.stalled = false;
    --stalled_;
    obs::tracer().instant("net", "flow_unstall", eng_.now(),
                          {{"flow", static_cast<double>(f.id)}, {"rate", rate}});
  }
  f.rate = rate;
}

bool FlowSim::component(const std::vector<int>& seed_links, double max_flows) {
  // Flows reachable from `seed_links` under the caller's `visit_epoch_`:
  // marks persist across calls, so the cold sweep visits each component
  // exactly once.
  comp_slots_.clear();
  link_q_.clear();
  for (int l : seed_links) {
    const auto lu = static_cast<std::size_t>(l);
    if (link_visit_epoch_[lu] == visit_epoch_) continue;
    link_visit_epoch_[lu] = visit_epoch_;
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
      // The whole-set dispatch only needs to know the component is
      // oversized, not its full membership: stop the BFS (and skip the
      // sort — contents become a size witness only) as soon as that is
      // proven, which turns an incast resolve's O(component) discovery into
      // O(threshold).
      if (static_cast<double>(comp_slots_.size()) > max_flows) {
        link_q_.clear();
        return true;
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
  return false;
}

int FlowSim::ledger_prefix(const std::vector<int>& members, int* arrival) {
  *arrival = -1;
  if (delta_.mixed) return 0;
  std::uint64_t pass = 0;
  int cut = std::numeric_limits<int>::max();
  if (delta_.removed > 0 && delta_.arrivals == 0) {
    pass = delta_.pass;  // removal-only: replay the levels below k*
    cut = delta_.min_level;
  } else if (!(delta_.removed == 0 && delta_.arrivals == 1)) {
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
  // The solve compares against and writes `f.rate`: settle the parked
  // uniform rate first.
  materialize_pending();
  // Replay the ledger prefix this resolve's delta leaves intact (DESIGN.md
  // §9) when it spans enough levels to pay for the grouping.
  int arrival = -1;
  const std::size_t lvl_cap = replay_level_.capacity();
  const std::size_t rank_cap = level_rank_.capacity();
  const int levels = ledger_prefix(comp, &arrival);
  const bool use_prefix = levels >= kMinReplayLevels;
  // Pack the component into the persistent compact problem: only its links,
  // numbered in first-seen order (ascending flow id), which makes the
  // restricted solve's arithmetic identical to the full solve's — within a
  // component the full solver performs exactly the same operations in the
  // same order, and flows outside it never touch these links.
  const std::size_t problem_reserved = comp_problem_.reserved();
  const std::size_t rates_cap = comp_rates_.capacity();
  const std::size_t prev_cap = comp_prev_rate_.capacity();
  const std::size_t levels_cap = comp_levels_.capacity();
  const auto& caps = fabric_.effective_capacities();
  comp_problem_.begin(caps.size());
  comp_prev_rate_.clear();
  for (int s : comp) {
    const Flow& f = slots_[static_cast<std::size_t>(s)];
    if (use_prefix) comp_prev_rate_.push_back(f.rate);
    for (int l : f.path) comp_problem_.push_link(l, caps.data());
    comp_problem_.end_path();
  }
  comp_rates_.resize(comp.size());
  comp_levels_.resize(comp.size());
  const FreezePrefix prefix{replay_level_.data(), comp_prev_rate_.data(),
                            levels, arrival};
  max_min_rates_csr(comp_problem_, nullptr, comp_rates_.data(), ss,
                    solve_scratch_, use_prefix ? &prefix : nullptr,
                    comp_levels_.data());
  // This solve is the members' new ledger entry.
  const std::uint64_t pass = ++pass_;
  for (std::size_t i = 0; i < comp.size(); ++i) {
    const auto su = static_cast<std::size_t>(comp[i]);
    ledger_pass_[su] = pass;
    ledger_level_[su] = comp_levels_[i];
  }
  stats_.replayed_flows += static_cast<std::uint64_t>(ss->replayed_flows);
  // A steady-state re-solve touches no allocator at all; count it. (The
  // count is thread-count independent — everything here runs on the
  // simulator's own thread against its own buffers.)
  const bool grew = solve_scratch_.last_solve_allocated ||
                    comp_problem_.reserved() != problem_reserved ||
                    comp_rates_.capacity() != rates_cap ||
                    comp_prev_rate_.capacity() != prev_cap ||
                    comp_levels_.capacity() != levels_cap ||
                    replay_level_.capacity() != lvl_cap ||
                    level_rank_.capacity() != rank_cap;
  static obs::Counter& reuse =
      obs::metrics().counter("net.solver.scratch_reuse");
  if (!grew) reuse.inc();
  // Counted write-back: `applied` are results that change a rate, `skipped`
  // are provable no-ops (set_rate's early-out).
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < comp.size(); ++i)
    applied +=
        set_rate(slots_[static_cast<std::size_t>(comp[i])], comp_rates_[i]);
  note_writeback(applied, static_cast<std::uint64_t>(comp.size()) - applied);
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

int FlowSim::try_single_incremental(double* rate) {
  // Single-bottleneck verdict from the maintained top-2 share summary,
  // touching only this resolve's dirty links. Soundness rests on two facts:
  // clean links' shares are the very doubles the full scan would compute
  // (same capacity under an unmoved epoch, same crosser count), and a clean
  // link can never be the unique all-flows bottleneck (this resolve's
  // churned flow crosses the bottleneck, dirtying it). `pending` rates are
  // irrelevant here — the verdict reads only capacities and incidence
  // counts, both maintained eagerly.
  if (!sb_valid_ || stalled_ != 0 || sb_.l1 < 0) return -1;
  if (fabric_.capacity_epoch() != sb_cap_epoch_) {
    sb_valid_ = false;
    return -1;
  }
  const double inf = std::numeric_limits<double>::infinity();
  const bool l1_dirty = link_dirty_[static_cast<std::size_t>(sb_.l1)] != 0;
  const bool l2_dirty =
      sb_.l2 >= 0 && link_dirty_[static_cast<std::size_t>(sb_.l2)] != 0;
  // Exact minimum share over clean (non-dirty) links, and the clean
  // runner-up: exact when `c2_known`, else only a lower bound (every link
  // but sb_.l1 had a share >= sb_.s2, and clean links keep theirs).
  double c1 = inf, c2 = sb_.s2;
  int c1l = -1, c2l = -1;
  bool c2_known = false;
  if (!l1_dirty) {
    c1 = sb_.s1;
    c1l = sb_.l1;
    if (sb_.l2 < 0 || !l2_dirty) {
      c2l = sb_.l2;
      c2_known = true;
    }
  } else if (sb_.l2 >= 0 && !l2_dirty) {
    c1 = sb_.s2;
    c1l = sb_.l2;
  } else if (sb_.l2 >= 0) {
    // Both ranked links churned: the clean minimum is unknowable.
    sb_valid_ = false;
    return -1;
  } else {
    c2_known = true;  // the only live link was sb_.l1, now dirty: no clean links
  }

  // Fresh top-2 among dirty links (emptied links are no longer constraints;
  // their lazy compaction stays with the full scan).
  const auto& caps = fabric_.effective_capacities();
  Top2 d;
  for (int l : dirty_links_) {
    const auto lu = static_cast<std::size_t>(l);
    const std::size_t n = flows_on_link_[lu].size();
    if (n == 0) continue;
    const double c = caps[lu];
    if (!std::isfinite(c) || c < 0.0) return -1;  // full scan diagnoses
    d.add(std::max(0.0, c) / static_cast<double>(n), l);
  }

  const double m = std::min(c1, d.s1);
  if (!std::isfinite(m)) return -1;
  const double cutoff = m;  // exact ties only, matching the solver cores
  int verdict;
  if (c1 <= cutoff) {
    // A clean link fires. It cannot carry every active flow (the churned
    // flow would have dirtied it), so the full scan would reject too:
    // either several links fire or the firing one misses flows.
    verdict = 0;
  } else if (d.s2 <= cutoff) {
    verdict = 0;  // >= 2 dirty links fire
  } else if (flows_on_link_[static_cast<std::size_t>(d.l1)].size() !=
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
  if (d.s1 <= c1) {
    n1 = d.s1;
    n1l = d.l1;
    if (d.s2 <= c1) {
      n2 = d.s2;
      n2l = d.l2;
    } else {
      n2 = c1;
      n2l = c1l;
    }
  } else {
    n1 = c1;
    n1l = c1l;
    // Runner-up is min(d1, clean second): known when the clean second is,
    // or when d1 lies at or below its lower bound.
    if (c2_known && c2 <= d.s1) {
      n2 = c2;
      n2l = c2l;
    } else if (d.s1 <= c2) {
      n2 = d.s1;
      n2l = d.l1;
    } else {
      exact = false;
      n1 = n2 = 0.0;
      n1l = n2l = -1;
    }
  }
  if (exact && n1l >= 0) {
    sb_ = {n1, n2, n1l, std::isfinite(n2) ? n2l : -1};
    sb_updated_ = true;
  } else {
    sb_valid_ = false;
  }

  ++stats_.minshare_incr;
  static obs::Counter& incr =
      obs::metrics().counter("net.solver.minshare.incr_scan");
  incr.inc();
  if (verdict != 1) return verdict;
  // A zero uniform rate stalls every flow: that rare case is left to the
  // full scan, which re-derives the verdict and writes the rate eagerly.
  if (!(m > 0.0)) return -1;
  *rate = m;
  return 1;
}

bool FlowSim::warm_single_bottleneck(double* rate) {
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
  Top2 top;
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
    top.add(std::max(0.0, c) / static_cast<double>(n), l);
  }
  live_links_.resize(w);
  if (bad_capacity)
    throw std::invalid_argument(
        "max_min_rates: capacities must be finite and >= 0");
  // The pass just computed the exact top-2 min shares over live links: store
  // them so the next resolve's incremental verdict can skip this scan.
  sb_ = top;
  sb_cap_epoch_ = fabric_.capacity_epoch();
  sb_valid_ = top.l1 >= 0;
  sb_updated_ = true;
  ++stats_.minshare_full;
  static obs::Counter& full_scan =
      obs::metrics().counter("net.solver.minshare.full_scan");
  full_scan.inc();
  if (!std::isfinite(top.s1)) return false;  // general path will diagnose
  // "Exactly one link fires" is a top-2 question: the minimum always fires
  // (exact ties only, matching the cores), so uniqueness is `s2 > s1`.
  if (top.s2 <= top.s1 ||
      flows_on_link_[static_cast<std::size_t>(top.l1)].size() !=
          active_order_.size())
    return false;
  *rate = top.s1;
  return true;
}

void FlowSim::set_uniform_rate(double rate, SolveStats* ss) {
  ++stats_.warm_single_hits;
  retire_ledger();  // rates set without levels
  ss->iterations = 1;
  ss->bottleneck_links = 1;
  if (stalled_ == 0 && rate > 0.0) {
    // Park, don't write: the rate is recorded once and materialised once
    // per distinct timestamp, so a churn event costs ~1 write instead of
    // one per active flow. Same-instant re-parks coalesce (zero-width
    // segments do no accrual arithmetic in the eager path either).
    if (pending_uniform_ && eng_.now() != pending_time_) materialize_pending();
    if (!pending_uniform_) {
      pending_uniform_ = true;
      pending_time_ = eng_.now();
      pending_first_ = rate;
      pending_mixed_ = false;
    } else {
      pending_mixed_ = pending_mixed_ || rate != pending_first_;
    }
    pending_rate_ = rate;
    return;
  }
  // A zero rate or a stalled survivor needs set_rate's stall bookkeeping at
  // *this* instant: write eagerly. Settle any parked rate first — the
  // early-out comparison and set_rate's accrual both read `f.rate` (a
  // capacity failure can land in the instant of a start burst).
  materialize_pending();
  std::uint64_t applied = 0;
  for (int s : active_order_)
    applied += set_rate(slots_[static_cast<std::size_t>(s)], rate);
  note_writeback(applied,
                 static_cast<std::uint64_t>(active_order_.size()) - applied);
}

void FlowSim::resolve_and_schedule() {
  resolve_owed_ = false;
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

  sb_updated_ = false;
  SolveStats ss;
  const bool full = !cfg_.incremental;
  bool whole = full;  // the solved set is the whole active set
  if (full) {
    // Cold reference: re-solve the whole active set, decomposed into
    // connected components (flows transitively sharing links) discovered in
    // ascending first-flow-id order. Per-component solutions equal the
    // global solution bit-for-bit (the component-vs-global property pins
    // this), and every rate is written eagerly. It replays nothing: with
    // every stamp retired first, no component finds a live prefix. The
    // passes it records are per component, so the stamps it leaves are
    // valid ledger entries.
    ++stats_.full_solves;
    retire_ledger();
    ++visit_epoch_;
    for (int seed : active_order_) {
      const Flow& f = slots_[static_cast<std::size_t>(seed)];
      if (f.visit_epoch == visit_epoch_) continue;
      component(f.path, std::numeric_limits<double>::infinity());
      SolveStats cs;
      solve_component(comp_slots_, &cs);
      ss.iterations += cs.iterations;
      ss.bottleneck_links += cs.bottleneck_links;
    }
  } else {
    // Each question is asked once, in this order (DESIGN.md §9): the
    // summary verdict, the capped component search, the full closed-form
    // scan for an oversized component the summary did not rule out, and
    // the CSR core.
    double rate = 0.0;
    const int verdict = try_single_incremental(&rate);
    if (verdict == 1) {
      whole = true;
    } else {
      // The parked uniform rate (if any) is NOT applied here: the search
      // reads only incidence, and a bailed verdict usually lands back in the
      // closed form, which re-parks. Each path that really compares or
      // writes `f.rate` materialises at its own entry instead — this keeps
      // same-instant start bursts (scenario injection, the bench ramp) from
      // paying one whole-set write per bailed verdict. The search stops as
      // soon as the component is proven oversized: the whole-set solve takes
      // its members from `active_order_`.
      ++visit_epoch_;
      whole = component(dirty_links_, cfg_.fallback_fraction *
                                          static_cast<double>(active_count_));
      stats_.largest_component = std::max<std::uint64_t>(
          stats_.largest_component, comp_slots_.size());
    }
    if (whole) {
      static obs::Counter& warm_hits =
          obs::metrics().counter("net.solver.warmstart.hit");
      static obs::ShardedStats& frontier_stat =
          obs::metrics().stats("net.solver.frontier_size");
      ++stats_.warm_solves;
      warm_hits.inc();
      std::size_t frontier = 0;
      // A conclusive "no" from the summary makes the full scan pointless.
      if (verdict == 1 || (verdict < 0 && warm_single_bottleneck(&rate))) {
        set_uniform_rate(rate, &ss);
      } else {
        // `active_order_` is the cold solve's flow visit order (ascending
        // id), so this packs the same CSR problem the cold solve would
        // build and runs the same core with the same ledger replay.
        solve_component(active_order_, &ss);
        if (ss.replayed_flows > 0) ++stats_.warm_prefix_hits;
        frontier = active_order_.size() -
                   static_cast<std::size_t>(ss.replayed_flows);
        stats_.frontier_flows += frontier;
      }
      frontier_stat.add(static_cast<double>(frontier));
    } else if (!comp_slots_.empty()) {
      ++stats_.component_solves;
      solve_component(comp_slots_, &ss);
      if (ss.replayed_flows > 0) ++stats_.component_prefix_hits;
    }
  }
  const std::vector<int>& solved = whole ? active_order_ : comp_slots_;
  stats_.flows_solved += solved.size();
  stats_.solver_iterations += static_cast<std::uint64_t>(ss.iterations);
  stats_.bottleneck_links += static_cast<std::uint64_t>(ss.bottleneck_links);

  // Per-solve observability: component size, which solve path ran, and
  // solver effort — the numbers that explain where resolve time goes.
  // `reason` records *why* a full solve was taken: 0 = none (whole-set or
  // restricted solve), 1 = incremental disabled.
  obs::tracer().instant(
      "net",
      full ? "resolve_full" : whole ? "resolve_warm" : "resolve_component",
      eng_.now(),
      {{"flows", static_cast<double>(solved.size())},
       {"active", static_cast<double>(active_count_)},
       {"iterations", static_cast<double>(ss.iterations)},
       {"reason", full ? 1.0 : 0.0}});
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
  // see stale values).
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
  if (whole || !comp_slots_.empty()) delta_ = {};

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
