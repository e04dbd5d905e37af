// Immutable topology snapshot: the shared, read-only half of the fabric.
//
// A `TopologySnapshot` owns everything about a fabric that does not depend on
// which links a particular scenario has failed: the topology, the routing
// configuration and the base effective capacities (NIC efficiency applied).
// It holds no mutable state — every route is derived per call from the
// topology's dense routing index (DESIGN.md §8) — so any number of threads
// and any number of per-session `FabricOverlay`s (fabric.hpp) can read one
// snapshot concurrently without locks. This is the serving-layer split
// (DESIGN.md §10): a thousand what-if scenarios share one snapshot and differ
// only in their overlays.
//
// Every routing entry point takes an optional failure view (`failed`,
// nullable = no failures): a dense per-link flag vector from an overlay.
// Routing decisions depend only on failed *Global* links (local/terminal
// failures zero capacity but never change paths), so overlays pass a view
// only when they hold failed global links.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "topo/topology.hpp"

namespace xscale::net {

enum class Routing {
  Minimal,   // shortest path only
  Valiant,   // always detour via a random intermediate group
  Adaptive,  // UGAL-style per-flow choice between the two
};

const char* to_string(Routing r);

struct FabricConfig {
  Routing routing = Routing::Adaptive;
  // Slingshot hardware congestion control (§4.2.2). When on, flows receive
  // their max-min fair share regardless of other traffic (victim isolation).
  // When off, head-of-line blocking couples flows that share a switch with an
  // oversubscribed link.
  bool congestion_control = true;
  // Fraction of wire rate a NIC sustains end-to-end (protocol/header
  // overheads); applied to terminal link capacities.
  double nic_efficiency = 0.70;
  // UGAL bias: take the non-minimal path when the minimal global link already
  // carries more than `ugal_threshold` times the flows of the detour path.
  double ugal_threshold = 2.0;
  std::uint64_t seed = 0xF2011EA5;
};

class TopologySnapshot {
 public:
  TopologySnapshot(topo::Topology topology, FabricConfig cfg);
  TopologySnapshot(const TopologySnapshot&) = delete;
  TopologySnapshot& operator=(const TopologySnapshot&) = delete;

  const topo::Topology& topology() const { return topo_; }
  const FabricConfig& config() const { return cfg_; }

  // Effective link capacities with no failures applied (indexed by link id).
  const std::vector<double>& base_capacities() const { return base_cap_; }
  std::size_t num_links() const { return base_cap_.size(); }

  // Route one flow under the failure view (nullable). Adaptive routing
  // consults `global_load` (flows currently assigned per link) when provided.
  // Thread-safe: concurrent callers may share the snapshot (each needs its
  // own rng and failure view).
  void route_into(int src_ep, int dst_ep, sim::Rng& rng,
                  const std::vector<int>* global_load,
                  const std::vector<char>* failed, std::vector<int>& out) const;

  // Minimal path under the failure view: the direct route, or the first live
  // one-intermediate-group detour when its Global bundle is failed.
  void minimal_path_into(int src_ep, int dst_ep,
                         const std::vector<char>* failed,
                         std::vector<int>& out) const;

  // Valiant non-minimal path (random intermediate group avoiding failed
  // global bundles under the view), written into `out` (replaced).
  void valiant_path_into(int src_ep, int dst_ep, sim::Rng& rng,
                         const std::vector<char>* failed,
                         std::vector<int>& out) const;

 private:
  // Switch-switch portion of the minimal path (<= 5 links); returns the
  // count written to `out5`. Counts a detour around a failed Global bundle
  // in `net.route_cache.overlay_reroute`; throws when no live inter-group
  // route exists.
  int compute_switch_segment(int sa, int sb, const std::vector<char>* failed,
                             int* out5) const;

  topo::Topology topo_;
  FabricConfig cfg_;
  std::vector<double> base_cap_;
};

// Build a snapshot ready for sharing across sessions.
std::shared_ptr<const TopologySnapshot> make_snapshot(topo::Topology topology,
                                                      FabricConfig cfg = {});

}  // namespace xscale::net
