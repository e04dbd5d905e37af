#include "sched/slurm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace xscale::sched {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::Auto: return "auto";
    case Placement::Pack: return "pack";
    case Placement::Spread: return "spread";
    case Placement::Random: return "random";
  }
  return "?";
}

namespace {

// The number of placement groups, checking the arguments before any member
// is built from them.
int group_count(int total_nodes, int nodes_per_group) {
  if (total_nodes < 0)
    throw std::invalid_argument("Scheduler: total_nodes must be >= 0, got " +
                                std::to_string(total_nodes));
  if (nodes_per_group <= 0)
    throw std::invalid_argument("Scheduler: nodes_per_group must be > 0, got " +
                                std::to_string(nodes_per_group));
  return (total_nodes + nodes_per_group - 1) / nodes_per_group;
}

}  // namespace

Scheduler::Scheduler(int total_nodes, int nodes_per_group, std::uint64_t seed)
    : total_nodes_(total_nodes),
      nodes_per_group_(nodes_per_group),
      groups_(group_count(total_nodes, nodes_per_group)),
      healthy_(static_cast<std::size_t>(total_nodes), 1),
      allocated_(static_cast<std::size_t>(total_nodes), 0),
      seed_(seed) {}

void Scheduler::check_node(int node, const char* who) const {
  if (node < 0 || node >= total_nodes_)
    throw std::out_of_range(std::string(who) + ": node " +
                            std::to_string(node) + " out of range [0, " +
                            std::to_string(total_nodes_) + ")");
}

void Scheduler::set_healthy(int node, bool healthy) {
  check_node(node, "Scheduler::set_healthy");
  healthy_[static_cast<std::size_t>(node)] = healthy ? 1 : 0;
}

bool Scheduler::is_healthy(int node) const {
  check_node(node, "Scheduler::is_healthy");
  return healthy_[static_cast<std::size_t>(node)];
}

int Scheduler::healthy_nodes() const {
  return static_cast<int>(std::count(healthy_.begin(), healthy_.end(), 1));
}

int Scheduler::free_nodes() const {
  int n = 0;
  for (int i = 0; i < total_nodes_; ++i)
    if (healthy_[static_cast<std::size_t>(i)] && !allocated_[static_cast<std::size_t>(i)])
      ++n;
  return n;
}

std::vector<int> Scheduler::pick_nodes(int count, Placement p) {
  if (p == Placement::Auto)
    p = count <= pack_threshold() ? Placement::Pack : Placement::Spread;

  auto available = [&](int node) {
    return healthy_[static_cast<std::size_t>(node)] &&
           !allocated_[static_cast<std::size_t>(node)];
  };

  std::vector<int> picked;
  picked.reserve(static_cast<std::size_t>(count));

  if (p == Placement::Pack) {
    // Fill the group with the fewest (but sufficient) free nodes first —
    // tight packing keeps large contiguous blocks free for big jobs.
    std::vector<std::pair<int, int>> group_free;  // (free count, group)
    for (int g = 0; g < groups_; ++g) {
      int free = 0;
      const int lo = g * nodes_per_group_;
      const int hi = std::min(total_nodes_, lo + nodes_per_group_);
      for (int n = lo; n < hi; ++n)
        if (available(n)) ++free;
      if (free > 0) group_free.emplace_back(free, g);
    }
    // Best fit: groups that can hold the whole remainder, smallest first.
    std::sort(group_free.begin(), group_free.end());
    while (static_cast<int>(picked.size()) < count && !group_free.empty()) {
      const int need = count - static_cast<int>(picked.size());
      auto it = std::find_if(group_free.begin(), group_free.end(),
                             [need](const auto& gf) { return gf.first >= need; });
      if (it == group_free.end()) it = std::prev(group_free.end());  // biggest
      const int g = it->second;
      const int lo = g * nodes_per_group_;
      const int hi = std::min(total_nodes_, lo + nodes_per_group_);
      for (int n = lo; n < hi && static_cast<int>(picked.size()) < count; ++n)
        if (available(n)) picked.push_back(n);
      group_free.erase(it);
    }
  } else if (p == Placement::Spread) {
    // Round-robin across groups so the job touches as many groups as
    // possible (maximizing global links reachable by minimal routing).
    std::vector<int> cursor(static_cast<std::size_t>(groups_), 0);
    bool progressed = true;
    while (static_cast<int>(picked.size()) < count && progressed) {
      progressed = false;
      for (int g = 0; g < groups_ && static_cast<int>(picked.size()) < count; ++g) {
        const int lo = g * nodes_per_group_;
        const int hi = std::min(total_nodes_, lo + nodes_per_group_);
        int& c = cursor[static_cast<std::size_t>(g)];
        while (lo + c < hi && !available(lo + c)) ++c;
        if (lo + c < hi) {
          picked.push_back(lo + c);
          ++c;
          progressed = true;
        }
      }
    }
  } else {  // Random
    std::vector<int> free_list;
    for (int n = 0; n < total_nodes_; ++n)
      if (available(n)) free_list.push_back(n);
    sim::Rng rng(seed_ ^ static_cast<std::uint64_t>(next_job_id_));
    for (std::size_t i = free_list.size(); i > 1; --i)
      std::swap(free_list[i - 1], free_list[rng.index(i)]);
    for (int i = 0; i < count && i < static_cast<int>(free_list.size()); ++i)
      picked.push_back(free_list[static_cast<std::size_t>(i)]);
  }

  if (static_cast<int>(picked.size()) < count) return {};
  std::sort(picked.begin(), picked.end());
  return picked;
}

std::optional<Allocation> Scheduler::allocate(int nodes, Placement p) {
  if (nodes < 0)
    throw std::invalid_argument(
        "Scheduler::allocate: node count must be >= 0, got " +
        std::to_string(nodes));
  auto picked = pick_nodes(nodes, p);
  if (picked.empty()) return std::nullopt;
  for (int n : picked) allocated_[static_cast<std::size_t>(n)] = 1;
  Allocation a;
  a.job_id = next_job_id_++;
  a.nodes = std::move(picked);
  a.vni = next_vni_++;
  if (next_vni_ == 0) next_vni_ = 1;  // VNI 0 is reserved
  return a;
}

void Scheduler::release(const Allocation& alloc) {
  // checknode runs between jobs; in this model it simply returns the node to
  // the free pool (health faults are injected via set_healthy). Every node
  // is checked before any is freed.
  for (int n : alloc.nodes) check_node(n, "Scheduler::release");
  for (int n : alloc.nodes) allocated_[static_cast<std::size_t>(n)] = 0;
}

std::vector<JobRecord> Scheduler::run_workload(sim::Engine& eng,
                                               const std::vector<JobRequest>& jobs,
                                               double run_until) {
  std::vector<JobRecord> records(jobs.size());
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    records[i].request = jobs[i];
    records[i].submit_time = eng.now();
    obs::tracer().instant("sched", "job_submit", eng.now(),
                          {{"job", static_cast<double>(i)},
                           {"nodes", static_cast<double>(jobs[i].nodes)}});
    queue.push_back(i);
  }
  static obs::Counter& submitted = obs::metrics().counter("sched.jobs_submitted");
  submitted.inc(jobs.size());

  double busy_node_seconds = 0;
  const double t0 = eng.now();
  static obs::Gauge& idle = obs::metrics().gauge("sched.idle_nodes");
  idle.set(static_cast<double>(free_nodes()));
  // Completion events still pending at truncation must be cancelled before
  // returning: they capture this frame's locals, and leaving them in the
  // engine would dangle if the caller keeps running it.
  std::unordered_map<std::size_t, std::uint64_t> pending_completion;

  // try_start is re-run whenever a job completes. FCFS with conservative
  // backfill: the head is tried first; followers start only if they fit in
  // the residual free set right now. A plain local is safe — and leak-free,
  // unlike a shared_ptr self-capture — because eng.run() below drains every
  // event that references it before this frame returns.
  std::function<void()> try_start;
  try_start = [&] {
    // Any start after a skipped earlier job is a backfill decision: the
    // later job jumped the FCFS order because it fits right now.
    bool skipped_earlier = false;
    for (auto it = queue.begin(); it != queue.end();) {
      const std::size_t j = *it;
      auto alloc = allocate(records[j].request.nodes, records[j].request.placement);
      if (alloc.has_value()) {
        records[j].job_id = alloc->job_id;
        records[j].nodes = alloc->nodes;
        records[j].start_time = eng.now();
        obs::tracer().instant(
            "sched", skipped_earlier ? "backfill_start" : "job_start",
            eng.now(),
            {{"job", static_cast<double>(j)},
             {"nodes", static_cast<double>(alloc->nodes.size())},
             {"wait", records[j].wait_time()}});
        if (skipped_earlier) {
          static obs::Counter& backfills =
              obs::metrics().counter("sched.backfill_starts");
          backfills.inc();
        }
        idle.set(static_cast<double>(free_nodes()));
        const double dur = records[j].request.duration_s;
        // Busy node-seconds are credited in the completion callback, from
        // the time the job actually ran — not here from the requested
        // duration, which over-counts (utilization > 1) when the run is
        // truncated before the job finishes.
        pending_completion[j] = eng.schedule_in(dur, [this, &eng, &records,
                                                      &try_start,
                                                      &busy_node_seconds,
                                                      &pending_completion, j,
                                                      a = *alloc] {
          pending_completion.erase(j);
          records[j].end_time = eng.now();
          busy_node_seconds += (records[j].end_time - records[j].start_time) *
                               static_cast<double>(a.nodes.size());
          obs::tracer().span("sched", "job", records[j].start_time,
                             records[j].end_time - records[j].start_time,
                             {{"job", static_cast<double>(j)},
                              {"nodes", static_cast<double>(a.nodes.size())}});
          static obs::Counter& completed =
              obs::metrics().counter("sched.jobs_completed");
          completed.inc();
          release(a);
          static obs::Gauge& idle_g = obs::metrics().gauge("sched.idle_nodes");
          idle_g.set(static_cast<double>(free_nodes()));
          try_start();
        });
        it = queue.erase(it);
      } else {
        skipped_earlier = true;
        ++it;
      }
    }
  };
  try_start();
  if (std::isfinite(run_until))
    eng.run_until(run_until);
  else
    eng.run();

  // Horizon: the truncation point, or the last completion for a full run.
  const double horizon = eng.now();
  for (auto& [j, event_id] : pending_completion) eng.cancel(event_id);
  for (auto& r : records) {
    if (r.end_time < 0 && r.start_time >= 0) {
      // Truncated mid-job (run_until, or a stop() scheduled by the caller):
      // credit only the node-seconds consumed so far, pro-rated to the
      // horizon, record the truncation time as the end, and free the nodes
      // so the scheduler can be reused.
      r.end_time = horizon;
      busy_node_seconds +=
          (horizon - r.start_time) * static_cast<double>(r.nodes.size());
      Allocation a;
      a.job_id = r.job_id;
      a.nodes = r.nodes;
      release(a);
    }
  }
  idle.set(static_cast<double>(free_nodes()));

  double makespan = t0;
  for (const auto& r : records) makespan = std::max(makespan, r.end_time);
  // Available node-seconds span submission (t0) to the horizon — measuring
  // from absolute zero used to misreport utilization for workloads submitted
  // at eng.now() > 0.
  const double span = makespan - t0;
  last_utilization_ =
      span > 0 ? busy_node_seconds / (span * static_cast<double>(total_nodes_))
               : 0;
  return records;
}

}  // namespace xscale::sched
