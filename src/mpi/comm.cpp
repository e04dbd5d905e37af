#include "mpi/comm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "net/patterns.hpp"

namespace xscale::mpi {

SimComm::SimComm(const machines::Machine& machine, const net::Fabric* fabric,
                 std::vector<int> nodes, CommConfig cfg)
    : machine_(&machine), fabric_(fabric), nodes_(std::move(nodes)), cfg_(cfg) {
  assert(!nodes_.empty());
  for (int n : nodes_)
    if (n < 0 || n >= machine.total_nodes)
      throw std::out_of_range("SimComm: node " + std::to_string(n) +
                              " out of range [0, " +
                              std::to_string(machine.total_nodes) + ")");
}

int SimComm::check_rank(int rank) const {
  if (rank < 0 || rank >= size())
    throw std::out_of_range("SimComm: rank " + std::to_string(rank) +
                            " out of range [0, " + std::to_string(size()) + ")");
  return rank;
}

int SimComm::endpoint_of(int rank) const {
  return machines::node_endpoint(*machine_, node_of(rank), nic_of(rank));
}

double SimComm::nic_share_penalty() const {
  const int per_nic = (cfg_.ppn + machine_->node.nics - 1) / machine_->node.nics;
  return static_cast<double>(per_nic - 1) * cfg_.nic_share_overhead_s;
}

double SimComm::latency(int rank_a, int rank_b) const {
  check_rank(rank_a);
  check_rank(rank_b);
  const auto& nic = machine_->node.nic;
  const double sw = 2.0 * nic.sw_overhead_s + nic_share_penalty();
  if (node_of(rank_a) == node_of(rank_b))
    return 0.5e-6;  // shared-memory path
  if (fabric_ != nullptr)
    return sw + fabric_->base_latency(endpoint_of(rank_a), endpoint_of(rank_b));
  // Analytic machines: software + two wire hops + three switch transits.
  return sw + 2.0 * nic.wire_latency_s + 3.0 * 0.2e-6;
}

double SimComm::pt2pt_bandwidth(int rank_a, int rank_b) const {
  check_rank(rank_a);
  check_rank(rank_b);
  const auto& nic = machine_->node.nic;
  if (node_of(rank_a) == node_of(rank_b))
    return machine_->node.cpu.stream_peak();  // on-node copies stream in DDR
  if (fabric_ != nullptr) {
    const auto rates =
        fabric_->steady_rates({{endpoint_of(rank_a), endpoint_of(rank_b)}});
    return rates[0];
  }
  return nic.rate * nic.efficiency;
}

double SimComm::pt2pt_time(int rank_a, int rank_b, double bytes) const {
  return latency(rank_a, rank_b) + bytes / pt2pt_bandwidth(rank_a, rank_b);
}

double SimComm::sustained_per_rank_bw() const {
  if (cached_bw_ >= 0) return cached_bw_;
  const auto& nic = machine_->node.nic;
  const int ranks = size();
  if (nnodes() == 1) {
    cached_bw_ = machine_->node.cpu.stream_peak() / std::max(1, cfg_.ppn);
    return cached_bw_;
  }
  if (fabric_ == nullptr) {
    // Analytic: node injection bandwidth divided among its ranks.
    cached_bw_ = machine_->node.injection_bandwidth() * nic.efficiency /
                 static_cast<double>(cfg_.ppn);
    return cached_bw_;
  }
  // Sample random rank-level permutation rounds over the allocation and
  // average the achieved per-flow rate (the steady pattern of an all-to-all
  // or a randomized neighbour exchange).
  sim::Rng rng(cfg_.seed);
  double total = 0;
  std::size_t count = 0;
  for (int s = 0; s < cfg_.bandwidth_samples; ++s) {
    const auto perm = net::random_permutation(ranks, rng);
    net::PairList pairs;
    pairs.reserve(perm.size());
    for (const auto& [r, peer] : perm) {
      if (node_of(r) == node_of(peer)) continue;  // on-node: free
      pairs.emplace_back(endpoint_of(r), endpoint_of(peer));
    }
    if (pairs.empty()) continue;
    const auto rates = fabric_->steady_rates(pairs);
    for (double x : rates) total += x;
    count += rates.size();
  }
  cached_bw_ = count > 0 ? total / static_cast<double>(count)
                         : nic.rate * nic.efficiency;
  return cached_bw_;
}

double SimComm::avg_latency() const {
  if (cached_lat_ >= 0) return cached_lat_;
  sim::Rng rng(cfg_.seed ^ 0x1A7);
  const int ranks = size();
  double total = 0;
  const int samples = 32;
  for (int i = 0; i < samples; ++i) {
    const int a = static_cast<int>(rng.index(static_cast<std::uint64_t>(ranks)));
    int b = static_cast<int>(rng.index(static_cast<std::uint64_t>(ranks)));
    if (b == a) b = (b + 1) % ranks;
    total += latency(a, b);
  }
  cached_lat_ = total / samples;
  return cached_lat_;
}

double SimComm::allreduce_time(double bytes) const {
  const int p = size();
  if (p <= 1) return 0;
  const double stages = std::ceil(std::log2(static_cast<double>(p)));
  const double lat = avg_latency();
  // Small payloads: recursive-doubling dissemination, one message per stage.
  const double small = stages * (lat + cfg_.collective_stage_overhead_s);
  // Large payloads: ring reduce-scatter + allgather moves 2*(p-1)/p of the
  // buffer at the sustained rate.
  const double large =
      2.0 * bytes * static_cast<double>(p - 1) / static_cast<double>(p) /
      std::max(1.0, sustained_per_rank_bw());
  return small + large;
}

double SimComm::barrier_time() const { return allreduce_time(8); }

double SimComm::alltoall_time(double bytes_per_pair) const {
  const int p = size();
  if (p <= 1) return 0;
  // (p-1) shift rounds; each round moves bytes_per_pair per rank at the
  // sustained rate, with a per-round latency floor.
  const double per_round = std::max(
      avg_latency(), bytes_per_pair / std::max(1.0, sustained_per_rank_bw()));
  return static_cast<double>(p - 1) * per_round;
}

double SimComm::allgather_time(double bytes_per_rank) const {
  const int p = size();
  if (p <= 1) return 0;
  const double ring = bytes_per_rank * static_cast<double>(p - 1) /
                      std::max(1.0, sustained_per_rank_bw());
  return avg_latency() * std::ceil(std::log2(static_cast<double>(p))) + ring;
}

double SimComm::halo_exchange_time(double bytes, int neighbors) const {
  if (size() <= 1 || neighbors <= 0) return 0;
  // Neighbor exchanges proceed concurrently; the rank's NIC share is the
  // bottleneck, so total bytes divide the sustained rate.
  return avg_latency() +
         static_cast<double>(neighbors) * bytes /
             std::max(1.0, sustained_per_rank_bw());
}

double SimComm::broadcast_time(double bytes) const {
  const int p = size();
  if (p <= 1) return 0;
  const double stages = std::ceil(std::log2(static_cast<double>(p)));
  return stages * (avg_latency() + bytes / std::max(1.0, sustained_per_rank_bw()));
}

}  // namespace xscale::mpi
