// GPCNeT (Global Performance and Congestion Network Test) reproduction.
//
// The benchmark (Chunduri et al., SC'19; §4.2.2 and Table 5 of the Frontier
// paper) splits the job into congestor nodes (80%) running adversarial
// patterns — all-to-all, one/two-sided incast, broadcasts — and victim nodes
// (20%) measuring:
//   * RR (random-ring) two-sided 8 B latency,
//   * RR two-sided bandwidth with sync (128 KiB),
//   * multiple small allreduce.
// Each metric is reported isolated and under congestion, as average and 99th
// percentile. Slingshot's congestion control makes congested == isolated at
// 8 PPN; disabling it (or oversubscribing NICs at 32 PPN) shows degradation.
#pragma once

#include <string>
#include <vector>

#include "machines/machine.hpp"
#include "mpi/comm.hpp"
#include "net/fabric.hpp"

namespace xscale::mpi {

struct GpcnetConfig {
  int nodes = 9400;
  int ppn = 8;
  double victim_fraction = 0.2;
  double rr_message_bytes = 131072;
  int latency_samples = 4096;
  // Latency jitter: lognormal sigma calibrated so p99/avg ~ 1.85 at 8 PPN
  // (Table 5: 4.8/2.6); NIC oversubscription widens the tail.
  double jitter_sigma = 0.27;
  // Offered load per congestor *rank*: GPCNeT congestors use small messages
  // and are message-rate limited, well below NIC line rate. At 8 PPN this
  // keeps global links under capacity (CC isolation, impact 1.0x); at 32 PPN
  // aggregate congestor demand exceeds the taper and victims degrade.
  double congestor_rank_load = 4.5e9;
  // Fraction of the RR BW+Sync window spent streaming (the sync phases idle
  // the NIC); calibrated to Table 5's 3497 MiB/s/rank.
  double rr_bw_duty = 0.80;
  std::uint64_t seed = 0x67C17;
};

struct GpcnetMetric {
  std::string name;
  double average = 0;
  double p99 = 0;
  std::string units;
};

struct GpcnetResult {
  std::vector<GpcnetMetric> isolated;
  std::vector<GpcnetMetric> congested;
  // Congestion impact factor per metric (>= 1; 1.0 is ideal isolation).
  std::vector<double> impact;
};

// Throws std::invalid_argument when `cfg.nodes` exceeds the machine's
// compute nodes.
GpcnetResult run_gpcnet(const machines::Machine& machine, const net::Fabric& fabric,
                        const GpcnetConfig& cfg = {});

}  // namespace xscale::mpi
