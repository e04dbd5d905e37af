// Simulated MPI: ranks mapped onto machine nodes/NICs, with point-to-point
// and collective time models grounded in the fabric simulator.
//
// Two backing modes:
//   * fabric-backed (Frontier, Summit): achieved bandwidths are sampled from
//     steady-state max-min solves over the job's actual node allocation, so
//     placement (packed vs spread) and topology (dragonfly vs fat-tree)
//     change the numbers — the effects §3.4.2 and §4.2.2 describe;
//   * analytic (Titan/Mira/Theta/Cori baselines): injection-bandwidth and
//     hop-latency models only.
#pragma once

#include <memory>
#include <vector>

#include "machines/machine.hpp"
#include "net/fabric.hpp"
#include "sim/rng.hpp"

namespace xscale::mpi {

struct CommConfig {
  int ppn = 8;  // ranks per node (8 = one per GCD, the paper's expected case)
  // Number of random shift rounds sampled when estimating sustained
  // inter-node bandwidth over the allocation.
  int bandwidth_samples = 8;
  // Extra per-message host overhead when more ranks than NICs share one NIC
  // (message-rate contention at 32 PPN, Table 5 discussion).
  double nic_share_overhead_s = 0.25e-6;
  // Per-stage progress/synchronization overhead inside collectives,
  // calibrated so a full-system 8 B allreduce lands at Table 5's 51.5 us.
  double collective_stage_overhead_s = 1.08e-6;
  std::uint64_t seed = 0xC0117EC7;
};

class SimComm {
 public:
  // `nodes` lists the machine node ids of the allocation (from the
  // scheduler); one outside [0, machine.total_nodes) throws
  // std::out_of_range. The fabric pointer may be null for analytic machines.
  SimComm(const machines::Machine& machine, const net::Fabric* fabric,
          std::vector<int> nodes, CommConfig cfg = {});

  int size() const { return static_cast<int>(nodes_.size()) * cfg_.ppn; }
  int nnodes() const { return static_cast<int>(nodes_.size()); }
  int ppn() const { return cfg_.ppn; }
  // Rank queries: a rank outside [0, size()) throws std::out_of_range, here
  // and in every point-to-point call below.
  int node_of_rank(int rank) const { return node_of(check_rank(rank)); }
  int nic_of_rank(int rank) const { return nic_of(check_rank(rank)); }
  int endpoint_of_rank(int rank) const { return endpoint_of(check_rank(rank)); }

  // --- point-to-point ---------------------------------------------------------
  // Zero-load one-way latency between two ranks (software + wire).
  double latency(int rank_a, int rank_b) const;
  // Time to move `bytes` between two ranks with no competing traffic.
  double pt2pt_time(int rank_a, int rank_b, double bytes) const;
  // Single-flow achieved bandwidth between two ranks.
  double pt2pt_bandwidth(int rank_a, int rank_b) const;

  // --- sustained aggregate bandwidths ------------------------------------------
  // Average per-rank achieved bandwidth when every rank streams to a random
  // peer simultaneously (sampled steady-state solves; cached).
  double sustained_per_rank_bw() const;
  double sustained_per_node_bw() const { return sustained_per_rank_bw() * cfg_.ppn; }

  // --- collectives ------------------------------------------------------------
  // Binomial-tree reduce + broadcast for small payloads, ring
  // reduce-scatter/allgather for large ones.
  double allreduce_time(double bytes) const;
  double barrier_time() const;
  // Personalized all-to-all: each rank sends `bytes_per_pair` to every other
  // rank; executed as size-1 shift rounds at the sustained rate.
  double alltoall_time(double bytes_per_pair) const;
  double allgather_time(double bytes_per_rank) const;
  // Nearest-neighbour halo exchange: each rank exchanges `bytes` with
  // `neighbors` peers concurrently.
  double halo_exchange_time(double bytes, int neighbors) const;
  double broadcast_time(double bytes) const;

  // Average zero-load latency over sampled rank pairs (cached).
  double avg_latency() const;

  const machines::Machine& machine() const { return *machine_; }
  const net::Fabric* fabric() const { return fabric_; }
  const std::vector<int>& nodes() const { return nodes_; }

 private:
  double nic_share_penalty() const;
  int check_rank(int rank) const;
  // Unchecked rank queries, for loops over ranks known to be in range.
  int node_of(int rank) const {
    return nodes_[static_cast<std::size_t>(rank / cfg_.ppn)];
  }
  int nic_of(int rank) const {
    return (rank % cfg_.ppn) % std::max(1, machine_->node.nics);
  }
  int endpoint_of(int rank) const;

  const machines::Machine* machine_;
  const net::Fabric* fabric_;
  std::vector<int> nodes_;
  CommConfig cfg_;
  mutable double cached_bw_ = -1;
  mutable double cached_lat_ = -1;
};

}  // namespace xscale::mpi
