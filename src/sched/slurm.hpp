// Slurm-like system scheduler (§3.4.2).
//
// Behaviours reproduced from the paper's description:
//   * compute nodes are scheduled exclusively to a single job,
//   * a `checknode` health gate runs at boot and between jobs — unhealthy
//     nodes are drained and never allocated,
//   * each jobstep gets a unique Slingshot VNI for traffic isolation,
//   * placement is topology-aware: small jobs are packed into one dragonfly
//     group to minimize global hops; large jobs are spread evenly across as
//     many groups as possible to maximize global bandwidth.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "machines/machine.hpp"
#include "sim/engine.hpp"

namespace xscale::sched {

enum class Placement { Auto, Pack, Spread, Random };
const char* to_string(Placement p);

struct Allocation {
  int job_id = -1;
  std::vector<int> nodes;
  std::uint16_t vni = 0;  // Slingshot Virtual Network Identifier
};

struct JobRequest {
  int nodes = 1;
  double duration_s = 0;
  Placement placement = Placement::Auto;
};

struct JobRecord {
  int job_id = -1;
  JobRequest request;
  double submit_time = 0;
  double start_time = -1;
  double end_time = -1;
  std::vector<int> nodes;
  double wait_time() const { return start_time - submit_time; }
};

class Scheduler {
 public:
  // `nodes_per_group` partitions node ids into dragonfly groups for
  // topology-aware placement (128 on Frontier). Throws
  // std::invalid_argument when `total_nodes` < 0 or `nodes_per_group` <= 0.
  Scheduler(int total_nodes, int nodes_per_group, std::uint64_t seed = 1);

  // --- node health (checknode) -------------------------------------------------
  // Both throw std::out_of_range, changing nothing, for a node outside
  // [0, total_nodes).
  void set_healthy(int node, bool healthy);
  bool is_healthy(int node) const;
  int healthy_nodes() const;
  int free_nodes() const;

  // --- synchronous allocation API ----------------------------------------------
  // Returns nullopt when not enough healthy free nodes exist (and for 0
  // nodes). Throws std::invalid_argument, changing nothing, when `nodes` < 0.
  std::optional<Allocation> allocate(int nodes, Placement p = Placement::Auto);
  // Throws std::out_of_range, freeing nothing, when any node of `alloc` is
  // outside [0, total_nodes).
  void release(const Allocation& alloc);

  // Threshold (in groups' worth of nodes) below which Auto packs.
  int pack_threshold() const { return nodes_per_group_; }

  // --- queued workload simulation ------------------------------------------------
  // FCFS with conservative backfill: a later job may start early only if it
  // fits in the current free set (it can never delay the queue head, whose
  // start time is bounded by running-job end times). Returns per-job records.
  //
  // A finite `run_until` truncates the simulation at that absolute time:
  // jobs still running are credited only for the node-seconds they actually
  // consumed (their end_time records the truncation time), and jobs still
  // queued keep start_time = -1. Busy time is credited at completion (or
  // pro-rated at truncation), never up front — crediting the full requested
  // duration at start used to report utilization > 1.0 on truncated runs.
  std::vector<JobRecord> run_workload(
      sim::Engine& eng, const std::vector<JobRequest>& jobs,
      double run_until = std::numeric_limits<double>::infinity());

  // Machine utilization of the last run_workload: node-seconds actually
  // consumed over node-seconds available between the workload's submission
  // time and its horizon (last job end, or the truncation time). Always in
  // [0, 1].
  double last_utilization() const { return last_utilization_; }

 private:
  std::vector<int> pick_nodes(int count, Placement p);
  void check_node(int node, const char* who) const;
  int group_of(int node) const { return node / nodes_per_group_; }

  int total_nodes_;
  int nodes_per_group_;
  int groups_;
  std::vector<char> healthy_;
  std::vector<char> allocated_;
  std::uint16_t next_vni_ = 1;
  int next_job_id_ = 1;
  std::uint64_t seed_;
  double last_utilization_ = 0;
};

}  // namespace xscale::sched
