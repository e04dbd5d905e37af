// Immutable topology snapshot: the shared, read-only half of the fabric.
//
// A `TopologySnapshot` owns everything about a fabric that does not depend on
// which links a particular scenario has failed: the topology, the routing
// configuration, the base effective capacities (NIC efficiency applied), and
// the two-level minimal-route cache (DESIGN.md §8). It is immutable after
// construction — the route cache fills lazily under its own synchronization
// and is NEVER invalidated — so any number of threads and any number of
// per-session `FabricOverlay`s (fabric.hpp) can read one snapshot
// concurrently. This is the serving-layer split (DESIGN.md §10): a thousand
// what-if scenarios share one snapshot and differ only in their overlays.
//
// Every routing entry point takes an optional failure view (`failed`,
// nullable = no failures): a dense per-link flag vector from an overlay.
// Routing decisions depend only on failed *Global* links (local/terminal
// failures zero capacity but never change paths), so overlays pass a view
// only when they hold failed global links; the cached failure-free path is
// still consulted first and reused verbatim whenever its global hop is live.
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
  // Memoise (src, dst) -> link-list expansion; off forces every route to be
  // computed fresh (the cache-vs-fresh differential tests use this).
  bool route_cache = true;
  std::uint64_t seed = 0xF2011EA5;
};

class TopologySnapshot {
 public:
  TopologySnapshot(topo::Topology topology, FabricConfig cfg);
  ~TopologySnapshot();
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

  // Minimal path under the failure view. Served from the shared cache when
  // the cached path's global hop is live; recomputed (uncached) otherwise.
  void minimal_path_into(int src_ep, int dst_ep,
                         const std::vector<char>* failed,
                         std::vector<int>& out) const;

  // Valiant non-minimal path (random intermediate group avoiding failed
  // global bundles under the view), written into `out` (replaced).
  void valiant_path_into(int src_ep, int dst_ep, sim::Rng& rng,
                         const std::vector<char>* failed,
                         std::vector<int>& out) const;

  // Minimal paths never change from terminal/local failures and the cache is
  // never reset, so these are failure-view-free conveniences.
  double base_latency(int src_ep, int dst_ep) const;
  int minimal_hops(int src_ep, int dst_ep) const;

 private:
  struct RouteCache;  // defined in snapshot.cpp

  // Failure-free minimal path via the two-level cache.
  void base_minimal_path_into(int src_ep, int dst_ep,
                              std::vector<int>& out) const;
  void minimal_path_fresh(int src_ep, int dst_ep,
                          const std::vector<char>* failed,
                          std::vector<int>& out) const;
  // Switch-switch portion of the minimal path (<= 5 links); returns the
  // count written to `out5`. Throws when no live inter-group route exists.
  int compute_switch_segment(int sa, int sb, const std::vector<char>* failed,
                             int* out5) const;

  topo::Topology topo_;
  FabricConfig cfg_;
  std::vector<double> base_cap_;
  // Filled lazily under the cache's own synchronization; never replaced after
  // construction (the zero-invalidation contract the serving layer relies on).
  mutable std::unique_ptr<RouteCache> cache_;
};

// Build a snapshot ready for sharing across sessions.
std::shared_ptr<const TopologySnapshot> make_snapshot(topo::Topology topology,
                                                      FabricConfig cfg = {});

}  // namespace xscale::net
