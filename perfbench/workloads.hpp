// The benchmark's three workloads, all on one full Frontier fabric.
#pragma once

#include <cstdint>
#include <memory>

#include "harness.hpp"
#include "machines/machine.hpp"
#include "net/flowsim.hpp"
#include "net/snapshot.hpp"

namespace xbench {

// Seed of every workload's warm-up inputs. Warm-ups draw from it instead of
// the run's seed, so set-up does the same work for every seed.
constexpr std::uint64_t kWarmupSeed = 0x3A3A5EEDull;

// `a += sign * b` over the cumulative FlowSim::Stats fields.
inline void accumulate(xscale::net::FlowSim::Stats& a,
                       const xscale::net::FlowSim::Stats& b, int sign = 1) {
  const auto s = static_cast<std::uint64_t>(sign);
  a.resolves += s * b.resolves;
  a.warm_solves += s * b.warm_solves;
  a.warm_single_hits += s * b.warm_single_hits;
  a.warm_memo_hits += s * b.warm_memo_hits;
  a.warm_prefix_hits += s * b.warm_prefix_hits;
  a.component_solves += s * b.component_solves;
  a.flows_solved += s * b.flows_solved;
  a.solver_iterations += s * b.solver_iterations;
  a.writeback_applied += s * b.writeback_applied;
  a.writeback_skipped += s * b.writeback_skipped;
  a.minshare_incr += s * b.minshare_incr;
  a.minshare_full += s * b.minshare_full;
}

// The FlowSim per-layer ratios over a stats delta `d`; every fraction of
// resolves shares the same base.
inline void flowsim_counts(const xscale::net::FlowSim::Stats& d, Counts& out) {
  const auto r = static_cast<double>(d.resolves);
  out["net.flowsim.warm_frac"] = ratio(static_cast<double>(d.warm_solves), r);
  out["net.flowsim.memo_hit_frac"] =
      ratio(static_cast<double>(d.warm_memo_hits), r);
  out["net.flowsim.single_hit_frac"] =
      ratio(static_cast<double>(d.warm_single_hits), r);
  out["net.flowsim.component_frac"] =
      ratio(static_cast<double>(d.component_solves), r);
  out["net.flowsim.prefix_hit_frac"] =
      ratio(static_cast<double>(d.warm_prefix_hits), r);
  out["net.flowsim.iters_per_resolve"] =
      ratio(static_cast<double>(d.solver_iterations), r);
  out["net.flowsim.flows_solved_per_resolve"] =
      ratio(static_cast<double>(d.flows_solved), r);
  out["net.flowsim.minshare_incr_frac"] =
      ratio(static_cast<double>(d.minshare_incr),
            static_cast<double>(d.minshare_incr + d.minshare_full));
  out["net.flowsim.writeback_useful_frac"] =
      ratio(static_cast<double>(d.writeback_applied),
            static_cast<double>(d.writeback_applied + d.writeback_skipped));
}

inline void route_cache_counts(const RouteCacheCounts& timed, Counts& out) {
  const auto hit = static_cast<double>(timed.hit);
  out["net.route.cache_hit_frac"] =
      ratio(hit, hit + static_cast<double>(timed.miss));
}

// Compute-node NIC endpoints come first in the Frontier topology.
inline int compute_endpoints(const xscale::machines::Machine& m) {
  return m.total_nodes * m.node.nics;
}

// Frontier topology + shared snapshot, with both phases timed into `t`.
inline std::shared_ptr<const xscale::net::TopologySnapshot> build_frontier(
    SetupTimes& t) {
  const std::int64_t t0 = now_ns();
  auto topo = xscale::machines::frontier_topology();
  const std::int64_t t1 = now_ns();
  auto snap = xscale::net::make_snapshot(
      std::move(topo), xscale::machines::frontier().fabric_defaults);
  const std::int64_t t2 = now_ns();
  t.topo_ms = ms_between(t0, t1);
  t.snapshot_ms = ms_between(t1, t2);
  return snap;
}

std::unique_ptr<Workload> make_serve_whatif(std::uint64_t seed);
std::unique_ptr<Workload> make_checkpoint_io(std::uint64_t seed);
std::unique_ptr<Workload> make_apps_jobmix(std::uint64_t seed);

}  // namespace xbench
