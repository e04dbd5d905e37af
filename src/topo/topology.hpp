// Interconnect topology substrate.
//
// A `Topology` is a directed multigraph of switches and endpoints. Parallel
// physical links between the same pair of switches (the paper's "bundles",
// §3.2) are aggregated into one logical link whose capacity is the bundle
// sum — flows are assumed to stripe across a bundle, which Slingshot does.
//
// Builders (four families; pick by what contention you need to model):
//   * `dragonfly(...)` — Slingshot-style three-hop dragonfly: fully connected
//     switches inside a group (L1 ports), direct group-to-group bundles
//     (L2 ports), 16 endpoints per switch (L0 ports). Use for Frontier-class
//     machines where the taper and adaptive-vs-minimal routing matter.
//   * `fat_tree(...)` — non-blocking Clos abstraction (Summit): every leaf
//     uplink carries the leaf's full injection demand, so contention exists
//     only at endpoint injection/ejection. Use as the "ideal fabric"
//     baseline, or for machines that really are non-blocking.
//   * `oversubscribed_fat_tree(...)` — the same Clos shape with leaf uplinks
//     thinned by an oversubscription ratio (2:1, 4:1, ...), so inter-leaf
//     traffic contends at the uplink the way commodity datacenter fabrics
//     do. Use when the question is how much taper an application tolerates.
//   * `rotor(...)` — time-sliced rotor/optical fabric: one switch per group,
//     inter-switch links partitioned into round-robin matchings of which
//     exactly one is live per slot. The builder lays down *every* matching's
//     links; matching 0 is live (capacity = link_bw x duty_cycle) and all
//     others carry zero capacity until a `net::RotorSchedule` drives the
//     slot rotation through a fabric overlay. Use to stress wholesale
//     capacity churn (every slot boundary reprices every inter-switch link).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace xscale::topo {

enum class LinkKind : std::uint8_t {
  Injection,  // endpoint -> switch (L0 in)
  Ejection,   // switch -> endpoint (L0 out)
  Local,      // switch -> switch inside a group (L1)
  Global,     // switch -> switch between groups (L2)
  Core,       // infinite-capacity Clos core (fat-tree abstraction)
};

struct Link {
  int id = -1;
  int src = -1;  // vertex id (switch or endpoint)
  int dst = -1;
  LinkKind kind = LinkKind::Local;
  double capacity = 0;   // B/s (bundle aggregate)
  double latency_s = 0;  // per-hop propagation + switch transit
};

struct GroupSpec {
  int switches = 32;
  int endpoints_per_switch = 16;
};

class Topology {
 public:
  // --- structure queries -----------------------------------------------------
  int num_switches() const { return num_switches_; }
  int num_endpoints() const { return static_cast<int>(endpoint_switch_.size()); }
  int num_groups() const { return n_groups_; }

  int endpoint_switch(int ep) const { return endpoint_switch_[static_cast<std::size_t>(ep)]; }
  int group_of_switch(int sw) const { return group_of_switch_[static_cast<std::size_t>(sw)]; }
  int group_of_endpoint(int ep) const { return group_of_switch(endpoint_switch(ep)); }

  const std::vector<Link>& links() const { return links_; }
  const Link& link(int id) const { return links_[static_cast<std::size_t>(id)]; }
  // `link(id).kind` from a dense byte array: routing reads the kind of every
  // hop it weighs, and one byte per link stays cache-resident where the
  // 40-byte `Link` records do not.
  LinkKind link_kind(int id) const { return link_kind_[static_cast<std::size_t>(id)]; }

  // Logical link from switch u to switch v (-1 if absent): intra-group Local
  // links of a dragonfly, leaf<->core links of a fat-tree. Endpoint links are
  // looked up with `injection_link` / `ejection_link`, inter-group links with
  // `global_link`.
  int switch_link(int sw_u, int sw_v) const;
  int injection_link(int ep) const { return injection_link_[static_cast<std::size_t>(ep)]; }
  int ejection_link(int ep) const { return ejection_link_[static_cast<std::size_t>(ep)]; }

  // Switch in group `g` that terminates the global bundle toward group `h`
  // (-1 if no bundle exists).
  int gateway_switch(int g, int h) const { return gateway_[group_pair(g, h)]; }
  // Global link id between groups g -> h (-1 if none).
  int global_link(int g, int h) const { return global_link_[group_pair(g, h)]; }

  // Groups adjacent to `g` via global bundles.
  std::vector<int> peer_groups(int g) const;

  // (first switch id, switch count) of group `g`.
  std::pair<int, int> group_switch_range(int g) const {
    return {group_first_switch_[static_cast<std::size_t>(g)],
            group_size_[static_cast<std::size_t>(g)]};
  }

  // Aggregate capacities for spec tables (Table 1's "Global Bandwidth").
  double total_global_capacity_one_direction() const;
  double injection_capacity_per_group(int g) const;
  double global_capacity_per_group(int g) const;

  bool is_fat_tree() const { return fat_tree_; }

  // --- rotor metadata ---------------------------------------------------------
  bool is_rotor() const { return rotor_matchings_ > 0; }
  int rotor_matchings() const { return rotor_matchings_; }
  double rotor_slot_s() const { return rotor_slot_s_; }
  double rotor_duty_cycle() const { return rotor_duty_cycle_; }
  // Capacity an inter-switch link carries while its matching is live.
  double rotor_active_capacity() const { return rotor_active_capacity_; }
  // Link ids of matching `m` (one directed link per switch: i -> (i+m+1) mod n).
  std::vector<int> rotor_matching_links(int m) const;

  // --- builders ---------------------------------------------------------------
  // `bundle_links(g, h)` returns physical link count of the g->h bundle
  // (0 = not connected). Must be symmetric.
  static Topology dragonfly(const std::vector<GroupSpec>& groups,
                            const std::function<int(int, int)>& bundle_links,
                            double link_bw, double hop_latency);

  // Uniform dragonfly convenience: `n_groups` identical groups, every pair
  // connected by `links_per_pair` physical links.
  static Topology uniform_dragonfly(int n_groups, GroupSpec spec, int links_per_pair,
                                    double link_bw, double hop_latency);

  // Non-blocking fat-tree: `leaves` leaf switches x `eps_per_leaf` endpoints;
  // every leaf connects to a single infinite core vertex.
  static Topology fat_tree(int leaves, int eps_per_leaf, double link_bw,
                           double hop_latency);

  // Oversubscribed fat-tree: same shape as `fat_tree`, but each leaf's core
  // uplink/downlink carries only `eps_per_leaf * link_bw / oversub_ratio`,
  // so inter-leaf traffic contends at the uplink (ratio 1 is non-blocking).
  static Topology oversubscribed_fat_tree(int leaves, int eps_per_leaf,
                                          double oversub_ratio, double link_bw,
                                          double hop_latency);

  // Time-sliced rotor fabric: `n_switches` single-switch groups, inter-switch
  // links partitioned into `n_matchings` round-robin matchings (matching m
  // connects switch i -> (i+m+1) mod n_switches; full any-to-any coverage
  // needs n_matchings == n_switches - 1). The built topology is frozen at
  // slot 0: matching 0's links carry `link_bw * duty_cycle`, every other
  // matching's links carry zero. `net::RotorSchedule` rotates the live
  // matching every `slot_s` seconds through a fabric overlay; the base
  // snapshot is never mutated.
  static Topology rotor(int n_switches, int eps_per_switch, int n_matchings,
                        double slot_s, double duty_cycle, double link_bw,
                        double hop_latency);

 private:
  int add_link(int src, int dst, LinkKind kind, double cap, double lat);
  std::size_t group_pair(int g, int h) const {
    return static_cast<std::size_t>(g) * static_cast<std::size_t>(n_groups_) +
           static_cast<std::size_t>(h);
  }
  // Size the n_groups^2 global-link / gateway tables (all -1).
  void init_group_tables();
  void add_global_link(int g, int h, int gw_g, int gw_h, double cap, double lat);

  int num_switches_ = 0;
  bool fat_tree_ = false;
  int rotor_matchings_ = 0;  // 0 = not a rotor fabric
  double rotor_slot_s_ = 0;
  double rotor_duty_cycle_ = 1.0;
  double rotor_active_capacity_ = 0;
  std::vector<Link> links_;
  std::vector<LinkKind> link_kind_;  // links_[i].kind, densely packed
  std::vector<int> endpoint_switch_;
  std::vector<int> injection_link_;
  std::vector<int> ejection_link_;
  std::vector<int> group_of_switch_;
  std::vector<int> group_first_switch_;  // per group
  std::vector<int> group_size_;          // switches per group
  // Dense routing index, built by each builder; O(links + groups^2) memory
  // (a switches^2 table would cost ~24 MB on Frontier).
  //   * Dragonfly Local links: group g's block starts at local_base_[g] and
  //     is a-major over ordered pairs (a, b != a), so switch_link is
  //     arithmetic over the group-relative indices.
  //   * Fat-tree core links: leaf_up_[leaf] / leaf_down_[leaf].
  //   * Global links and their source gateways: (g * n_groups + h) tables.
  std::vector<int> local_base_;   // per group (dragonfly only)
  std::vector<int> leaf_up_;      // per leaf (fat-tree only)
  std::vector<int> leaf_down_;    // per leaf (fat-tree only)
  std::vector<int> global_link_;  // n_groups^2, -1 = no bundle
  std::vector<int> gateway_;      // n_groups^2, -1 = no bundle
  int n_groups_ = 0;
};

}  // namespace xscale::topo
