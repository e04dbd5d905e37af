#include "mpi/gpcnet.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "net/patterns.hpp"
#include "sim/parallel.hpp"
#include "sim/stats.hpp"

namespace xscale::mpi {
namespace {

using net::PairList;

// Congestor traffic at NIC granularity: one flow per congestor NIC, with a
// weight equal to the ranks sharing that NIC, so the solve is PPN-faithful
// without 300k individual rank flows.
struct FlowSet {
  PairList pairs;
  std::vector<double> weights;
  std::vector<double> caps;      // offered-load bound per flow (0 = uncapped)
  std::size_t victim_begin = 0;  // victim flows occupy [victim_begin, end)
};

FlowSet build_flows(const machines::Machine& m, const GpcnetConfig& cfg,
                    const std::vector<int>& congestors,
                    const std::vector<int>& victims, bool with_congestion,
                    sim::Rng& rng) {
  FlowSet fs;
  const int nics = std::max(1, m.node.nics);
  const double w = static_cast<double>(cfg.ppn) / static_cast<double>(nics);
  const double congestor_cap = cfg.congestor_rank_load * w;
  auto push = [&fs](int src, int dst, double weight, double cap) {
    fs.pairs.emplace_back(src, dst);
    fs.weights.push_back(weight);
    fs.caps.push_back(cap);
  };

  if (with_congestion) {
    // Four congestor cohorts: all-to-all (random permutation shifts), incast,
    // one-sided incast, broadcast — the GPCNeT pattern mix. Each cohort's
    // flows are a pure function of the source index, so generation fans out
    // over the pool with sim::parallel_emit; chunk-ordered concatenation
    // keeps the flow list byte-identical to the serial loop at any thread
    // count (the solve downstream is order-sensitive only in tie-breaking,
    // so the order must not drift).
    struct Rec {
      int src, dst;
    };
    auto emit_all = [&](const std::vector<Rec>& recs) {
      for (const Rec& r : recs) push(r.src, r.dst, w, congestor_cap);
    };
    const std::size_t n = congestors.size();
    const std::size_t cohort = n / 4;
    // Cohort 0+1: permutation traffic among congestors (all-to-all phase).
    emit_all(sim::parallel_emit<Rec>(
        2 * cohort, 512, [&](std::size_t i, std::vector<Rec>& out) {
          const int a = congestors[i];
          const int b = congestors[(i + 7 * cohort / 3 + 1) % (2 * cohort)];
          if (a == b) return;
          for (int k = 0; k < nics; ++k)
            out.push_back({machines::node_endpoint(m, a, k),
                           machines::node_endpoint(m, b, k)});
        }));
    // Cohort 2: incast groups of 64 sources onto one target NIC.
    const std::size_t incast_groups = cohort >= 65 ? (cohort - 65) / 65 + 1 : 0;
    emit_all(sim::parallel_emit<Rec>(
        incast_groups, 8, [&](std::size_t g, std::vector<Rec>& out) {
          const std::size_t base = 2 * cohort + g * 65;
          const int target = congestors[base];
          for (int s = 1; s <= 64; ++s) {
            const int src = congestors[base + static_cast<std::size_t>(s)];
            out.push_back({machines::node_endpoint(m, src, s % nics),
                           machines::node_endpoint(m, target, 0)});
          }
        }));
    // Cohort 3: broadcasts, 1 root to 64 leaves.
    const std::size_t bcast_span = n - 3 * cohort;
    const std::size_t bcast_groups =
        bcast_span >= 65 ? (bcast_span - 65) / 65 + 1 : 0;
    emit_all(sim::parallel_emit<Rec>(
        bcast_groups, 8, [&](std::size_t g, std::vector<Rec>& out) {
          const std::size_t base = 3 * cohort + g * 65;
          const int root = congestors[base];
          for (int s = 1; s <= 64; ++s) {
            const int dst = congestors[base + static_cast<std::size_t>(s)];
            out.push_back({machines::node_endpoint(m, root, s % nics),
                           machines::node_endpoint(m, dst, s % nics)});
          }
        }));
  }

  fs.victim_begin = fs.pairs.size();
  // Victim random ring: every victim NIC streams to the same NIC of the next
  // victim in a shuffled ring.
  std::vector<int> ring = victims;
  for (std::size_t i = ring.size() - 1; i > 0; --i)
    std::swap(ring[i], ring[rng.index(i + 1)]);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const int a = ring[i];
    const int b = ring[(i + 1) % ring.size()];
    for (int k = 0; k < nics; ++k)
      push(machines::node_endpoint(m, a, k), machines::node_endpoint(m, b, k),
           w, 0.0);
  }
  return fs;
}

// Per-rank achieved bandwidth stats for the victim flows of `fs`.
void victim_bw_stats(const std::vector<double>& rates, const FlowSet& fs,
                     double ranks_per_flow, double* avg, double* p99_low) {
  sim::SampleSet s;
  for (std::size_t i = fs.victim_begin; i < rates.size(); ++i)
    s.add(rates[i] / ranks_per_flow);
  *avg = s.mean();
  *p99_low = s.percentile(1.0);  // "99%" for bandwidth = 99th-worst (slowest 1%)
}

}  // namespace

GpcnetResult run_gpcnet(const machines::Machine& machine, const net::Fabric& fabric,
                        const GpcnetConfig& cfg) {
  if (cfg.nodes > machine.compute_nodes)
    throw std::invalid_argument(
        "run_gpcnet: " + std::to_string(cfg.nodes) + " nodes requested on " +
        machine.name + ", which has " + std::to_string(machine.compute_nodes) +
        " compute nodes");
  sim::Rng rng(cfg.seed);
  const int nics = std::max(1, machine.node.nics);
  const double ranks_per_flow =
      static_cast<double>(cfg.ppn) / static_cast<double>(nics);

  // Node split: victims interleaved through the machine like a real
  // allocation (every 1/victim_fraction-th node).
  std::vector<int> victims, congestors;
  const int stride = static_cast<int>(std::lround(1.0 / cfg.victim_fraction));
  for (int nd = 0; nd < cfg.nodes; ++nd)
    (nd % stride == 0 ? victims : congestors).push_back(nd);

  CommConfig cc;
  cc.ppn = cfg.ppn;
  cc.seed = cfg.seed;
  SimComm victim_comm(machine, &fabric, victims, cc);

  // ---- bandwidth metric: steady-state solves --------------------------------
  sim::Rng flow_rng(cfg.seed ^ 0xBEEF);
  auto con = build_flows(machine, cfg, congestors, victims, true, flow_rng);
  // The isolated problem is exactly the victim tail slice of the congested
  // one: congestor cohorts are a pure function of the source index and
  // consume no RNG, so the victim ring shuffle lands on the same state either
  // way. Slicing instead of a second build halves flow generation and keeps
  // the solve inputs byte-identical to the two-build version (table 5 golden).
  FlowSet iso;
  const auto vb = static_cast<std::ptrdiff_t>(con.victim_begin);
  iso.pairs.assign(con.pairs.begin() + vb, con.pairs.end());
  iso.weights.assign(con.weights.begin() + vb, con.weights.end());
  iso.caps.assign(con.caps.begin() + vb, con.caps.end());
  iso.victim_begin = 0;
  const auto iso_rates =
      fabric.steady_rates(iso.pairs, &iso.weights, nullptr, &iso.caps);
  double iso_bw_avg, iso_bw_p99, con_bw_avg, con_bw_p99;
  victim_bw_stats(iso_rates, iso, ranks_per_flow, &iso_bw_avg, &iso_bw_p99);

  // NIC oversubscription beyond the paper's 8 PPN baseline erodes isolation
  // even under congestion control (progress-engine and ordering-point
  // sharing); calibrated to the 1.2-1.6x degradation quoted for 32 PPN.
  const double oversub =
      std::max(0.0, static_cast<double>(cfg.ppn) / (2.0 * nics) - 1.0);

  if (fabric.config().congestion_control) {
    // Slingshot CC throttles the flows *causing* congestion at their
    // congestion point, so innocent-bystander (victim) flows keep their
    // isolated rates up to a small residual interference (§4.2.2: 3497 ->
    // 3472 MiB/s/rank, a 0.7% dip).
    const double residual = 0.993;
    const double scale = residual / (1.0 + 0.15 * oversub);
    con_bw_avg = iso_bw_avg * scale;
    con_bw_p99 = iso_bw_p99 * scale;
  } else {
    // No CC: joint solve plus head-of-line blocking at shared switches.
    const auto con_rates =
        fabric.steady_rates(con.pairs, &con.weights, nullptr, &con.caps);
    victim_bw_stats(con_rates, con, ranks_per_flow, &con_bw_avg, &con_bw_p99);
  }
  iso_bw_avg *= cfg.rr_bw_duty;
  iso_bw_p99 *= cfg.rr_bw_duty;
  con_bw_avg *= cfg.rr_bw_duty;
  con_bw_p99 *= cfg.rr_bw_duty;

  // Congestion overload factor drives the latency/allreduce inflation: ~0
  // when the fabric isolates victims perfectly.
  const double overload = std::max(0.0, iso_bw_avg / std::max(con_bw_avg, 1.0) - 1.0);

  // ---- latency metric: sampled victim pairs + lognormal jitter --------------
  auto latency_stats = [&](double extra_sigma, double inflate, double* avg,
                           double* p99) {
    sim::SampleSet s;
    sim::Rng lrng(cfg.seed ^ 0x1A7E);
    const int nranks = victim_comm.size();
    for (int i = 0; i < cfg.latency_samples; ++i) {
      const int a = static_cast<int>(lrng.index(static_cast<std::uint64_t>(nranks)));
      int b = static_cast<int>(lrng.index(static_cast<std::uint64_t>(nranks)));
      if (b == a) b = (b + 1) % nranks;
      const double base = victim_comm.latency(a, b) * inflate;
      const double sigma = cfg.jitter_sigma + extra_sigma;
      // Mean-preserving lognormal jitter: divide out E[lognormal] so the
      // average tracks `inflate` while sigma widens only the tail.
      s.add(base * lrng.lognormal_median(1.0, sigma) *
            std::exp(-0.5 * sigma * sigma));
    }
    *avg = s.mean();
    *p99 = s.percentile(99.0);
  };
  double iso_lat_avg, iso_lat_p99, con_lat_avg, con_lat_p99;
  latency_stats(0.0, 1.0, &iso_lat_avg, &iso_lat_p99);
  latency_stats(0.27 * oversub + 0.5 * overload,
                1.0 + 0.12 * (overload + oversub), &con_lat_avg, &con_lat_p99);

  // ---- multiple allreduce ----------------------------------------------------
  const double iso_ar = victim_comm.allreduce_time(8);
  const double con_ar = iso_ar * (1.0 + 0.15 * (overload + oversub));

  auto mk = [](std::string name, double avg, double p99, std::string units) {
    return GpcnetMetric{std::move(name), avg, p99, std::move(units)};
  };
  GpcnetResult out;
  out.isolated = {
      mk("RR Two-sided Lat (8 B)", iso_lat_avg * 1e6, iso_lat_p99 * 1e6, "usec"),
      mk("RR Two-sided BW+Sync (131072 B)", iso_bw_avg / units::MiB(1),
         iso_bw_p99 / units::MiB(1), "MiB/s/rank"),
      mk("Multiple Allreduce (8 B)", iso_ar * 1e6, iso_ar * 1e6 * 1.05, "usec"),
  };
  out.congested = {
      mk("RR Two-sided Lat (8 B)", con_lat_avg * 1e6, con_lat_p99 * 1e6, "usec"),
      mk("RR Two-sided BW+Sync (131072 B)", con_bw_avg / units::MiB(1),
         con_bw_p99 / units::MiB(1), "MiB/s/rank"),
      mk("Multiple Allreduce (8 B)", con_ar * 1e6, con_ar * 1e6 * 1.05, "usec"),
  };
  out.impact = {
      con_lat_avg / iso_lat_avg,
      iso_bw_avg / std::max(con_bw_avg, 1.0),  // bandwidth: lower is worse
      con_ar / iso_ar,
  };
  return out;
}

}  // namespace xscale::mpi
