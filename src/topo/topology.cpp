#include "topo/topology.hpp"

#include <cassert>
#include <stdexcept>

namespace xscale::topo {

int Topology::add_link(int src, int dst, LinkKind kind, double cap, double lat) {
  const int id = static_cast<int>(links_.size());
  links_.push_back(Link{id, src, dst, kind, cap, lat});
  link_kind_.push_back(kind);
  return id;
}

void Topology::init_group_tables() {
  const auto pairs =
      static_cast<std::size_t>(n_groups_) * static_cast<std::size_t>(n_groups_);
  global_link_.assign(pairs, -1);
  gateway_.assign(pairs, -1);
}

void Topology::add_global_link(int g, int h, int gw_g, int gw_h, double cap,
                               double lat) {
  global_link_[group_pair(g, h)] = add_link(gw_g, gw_h, LinkKind::Global, cap, lat);
  gateway_[group_pair(g, h)] = gw_g;
}

int Topology::switch_link(int u, int v) const {
  if (u < 0 || v < 0 || u >= num_switches_ || v >= num_switches_ || u == v)
    return -1;
  if (fat_tree_) {
    const int core = num_switches_ - 1;
    if (v == core) return leaf_up_[static_cast<std::size_t>(u)];
    if (u == core) return leaf_down_[static_cast<std::size_t>(v)];
    return -1;
  }
  // Rotor groups hold one switch each, so u != v never shares a group there.
  const int g = group_of_switch(u);
  if (group_of_switch(v) != g) return -1;
  // Offset of (a, b) in the a-major block of ordered pairs with b != a.
  const int first = group_first_switch_[static_cast<std::size_t>(g)];
  const int n = group_size_[static_cast<std::size_t>(g)];
  const int a = u - first;
  const int b = v - first;
  return local_base_[static_cast<std::size_t>(g)] + a * (n - 1) + (b < a ? b : b - 1);
}

std::vector<int> Topology::peer_groups(int g) const {
  std::vector<int> peers;
  for (int h = 0; h < n_groups_; ++h)
    if (h != g && global_link(g, h) >= 0) peers.push_back(h);
  return peers;
}

double Topology::total_global_capacity_one_direction() const {
  double sum = 0;
  for (const auto& l : links_)
    if (l.kind == LinkKind::Global) sum += l.capacity;
  return sum / 2.0;  // directed links counted once per direction
}

double Topology::injection_capacity_per_group(int g) const {
  double sum = 0;
  for (std::size_t ep = 0; ep < endpoint_switch_.size(); ++ep)
    if (group_of_endpoint(static_cast<int>(ep)) == g)
      sum += links_[static_cast<std::size_t>(injection_link_[ep])].capacity;
  return sum;
}

double Topology::global_capacity_per_group(int g) const {
  double sum = 0;
  for (const auto& l : links_)
    if (l.kind == LinkKind::Global && group_of_switch(l.src) == g) sum += l.capacity;
  return sum;
}

Topology Topology::dragonfly(const std::vector<GroupSpec>& groups,
                             const std::function<int(int, int)>& bundle_links,
                             double link_bw, double hop_latency) {
  Topology t;
  t.n_groups_ = static_cast<int>(groups.size());

  // Size everything up front — a Frontier-scale build (~2.5k switches,
  // ~39k endpoints, ~160k links) would otherwise spend most of its time in
  // vector regrowth.
  {
    std::size_t switches = 0, endpoints = 0, locals = 0;
    for (const GroupSpec& gs : groups) {
      const auto s = static_cast<std::size_t>(gs.switches);
      switches += s;
      endpoints += s * static_cast<std::size_t>(gs.endpoints_per_switch);
      locals += s * (s - 1);
    }
    const std::size_t globals =
        static_cast<std::size_t>(t.n_groups_) *
        static_cast<std::size_t>(t.n_groups_ > 0 ? t.n_groups_ - 1 : 0);
    t.group_first_switch_.reserve(groups.size());
    t.group_size_.reserve(groups.size());
    t.group_of_switch_.reserve(switches);
    t.endpoint_switch_.reserve(endpoints);
    t.injection_link_.reserve(endpoints);
    t.ejection_link_.reserve(endpoints);
    t.links_.reserve(2 * endpoints + locals + globals);
    t.link_kind_.reserve(2 * endpoints + locals + globals);
    t.local_base_.reserve(groups.size());
  }

  // Switch ids, grouped contiguously.
  for (int g = 0; g < t.n_groups_; ++g) {
    t.group_first_switch_.push_back(t.num_switches_);
    t.group_size_.push_back(groups[static_cast<std::size_t>(g)].switches);
    for (int s = 0; s < groups[static_cast<std::size_t>(g)].switches; ++s)
      t.group_of_switch_.push_back(g);
    t.num_switches_ += groups[static_cast<std::size_t>(g)].switches;
  }

  // Endpoints + terminal links.
  for (int g = 0; g < t.n_groups_; ++g) {
    const auto& spec = groups[static_cast<std::size_t>(g)];
    for (int s = 0; s < spec.switches; ++s) {
      const int sw = t.group_first_switch_[static_cast<std::size_t>(g)] + s;
      for (int e = 0; e < spec.endpoints_per_switch; ++e) {
        const int ep = static_cast<int>(t.endpoint_switch_.size());
        t.endpoint_switch_.push_back(sw);
        t.injection_link_.push_back(
            t.add_link(ep, sw, LinkKind::Injection, link_bw, hop_latency));
        t.ejection_link_.push_back(
            t.add_link(sw, ep, LinkKind::Ejection, link_bw, hop_latency));
      }
    }
  }

  // Intra-group full connectivity: one L1 link per ordered switch pair, laid
  // down a-major so switch_link can compute the id from the pair.
  for (int g = 0; g < t.n_groups_; ++g) {
    const int first = t.group_first_switch_[static_cast<std::size_t>(g)];
    const int n = t.group_size_[static_cast<std::size_t>(g)];
    t.local_base_.push_back(static_cast<int>(t.links_.size()));
    for (int a = 0; a < n; ++a)
      for (int b = 0; b < n; ++b) {
        if (a == b) continue;
        t.add_link(first + a, first + b, LinkKind::Local, link_bw, hop_latency);
      }
  }

  // Global bundles: one aggregated logical link per direction per group pair.
  // The bundle terminates on a deterministic gateway switch: peer-group index
  // modulo the group size, which spreads bundles over switches like the real
  // fabric manager's cabling plan does.
  t.init_group_tables();
  for (int g = 0; g < t.n_groups_; ++g)
    for (int h = 0; h < t.n_groups_; ++h) {
      if (g == h) continue;
      const int nl = bundle_links(g, h);
      if (nl <= 0) continue;
      if (bundle_links(h, g) != nl)
        throw std::invalid_argument("bundle_links must be symmetric");
      const int gw_g = t.group_first_switch_[static_cast<std::size_t>(g)] +
                       h % t.group_size_[static_cast<std::size_t>(g)];
      const int gw_h = t.group_first_switch_[static_cast<std::size_t>(h)] +
                       g % t.group_size_[static_cast<std::size_t>(h)];
      t.add_global_link(g, h, gw_g, gw_h, static_cast<double>(nl) * link_bw,
                        hop_latency);
    }
  return t;
}

Topology Topology::uniform_dragonfly(int n_groups, GroupSpec spec, int links_per_pair,
                                     double link_bw, double hop_latency) {
  return dragonfly(std::vector<GroupSpec>(static_cast<std::size_t>(n_groups), spec),
                   [links_per_pair](int, int) { return links_per_pair; }, link_bw,
                   hop_latency);
}

Topology Topology::fat_tree(int leaves, int eps_per_leaf, double link_bw,
                            double hop_latency) {
  // Non-blocking == oversubscription ratio 1: the uplink carries the leaf's
  // full injection demand and is never the bottleneck.
  return oversubscribed_fat_tree(leaves, eps_per_leaf, 1.0, link_bw,
                                 hop_latency);
}

Topology Topology::oversubscribed_fat_tree(int leaves, int eps_per_leaf,
                                           double oversub_ratio, double link_bw,
                                           double hop_latency) {
  if (oversub_ratio < 1.0)
    throw std::invalid_argument("oversub_ratio must be >= 1");
  Topology t;
  t.fat_tree_ = true;
  t.n_groups_ = 1;
  t.group_first_switch_.push_back(0);
  // Leaf switches plus one core vertex.
  t.num_switches_ = leaves + 1;
  t.group_size_.push_back(t.num_switches_);
  t.group_of_switch_.assign(static_cast<std::size_t>(t.num_switches_), 0);
  const int core = leaves;

  const auto eps =
      static_cast<std::size_t>(leaves) * static_cast<std::size_t>(eps_per_leaf);
  t.endpoint_switch_.reserve(eps);
  t.injection_link_.reserve(eps);
  t.ejection_link_.reserve(eps);
  t.links_.reserve(2 * eps + 2 * static_cast<std::size_t>(leaves));
  t.link_kind_.reserve(2 * eps + 2 * static_cast<std::size_t>(leaves));
  t.leaf_up_.reserve(static_cast<std::size_t>(leaves));
  t.leaf_down_.reserve(static_cast<std::size_t>(leaves));
  t.init_group_tables();  // one group: no global links

  for (int l = 0; l < leaves; ++l) {
    for (int e = 0; e < eps_per_leaf; ++e) {
      const int ep = static_cast<int>(t.endpoint_switch_.size());
      t.endpoint_switch_.push_back(l);
      t.injection_link_.push_back(
          t.add_link(ep, l, LinkKind::Injection, link_bw, hop_latency));
      t.ejection_link_.push_back(
          t.add_link(l, ep, LinkKind::Ejection, link_bw, hop_latency));
    }
    // Uplink capacity: full injection demand divided by the oversubscription
    // ratio. At ratio 1 the uplink is never the bottleneck; above 1 inter-leaf
    // traffic contends here before it contends at the terminals.
    const double up =
        link_bw * static_cast<double>(eps_per_leaf) / oversub_ratio;
    t.leaf_up_.push_back(t.add_link(l, core, LinkKind::Core, up, hop_latency));
    t.leaf_down_.push_back(t.add_link(core, l, LinkKind::Core, up, hop_latency));
  }
  return t;
}

Topology Topology::rotor(int n_switches, int eps_per_switch, int n_matchings,
                         double slot_s, double duty_cycle, double link_bw,
                         double hop_latency) {
  if (n_switches < 2) throw std::invalid_argument("rotor needs >= 2 switches");
  if (n_matchings < 1 || n_matchings > n_switches - 1)
    throw std::invalid_argument("n_matchings must be in [1, n_switches - 1]");
  if (slot_s <= 0.0) throw std::invalid_argument("slot_s must be positive");
  if (duty_cycle <= 0.0 || duty_cycle > 1.0)
    throw std::invalid_argument("duty_cycle must be in (0, 1]");

  // One switch per group: every inter-switch link is a Global link, so the
  // dragonfly routing branch (direct group-to-group hop) serves unchanged and
  // routing never needs a rotor-specific path. The links of ALL matchings are
  // laid down statically; a slot change only re-prices them (never adds or
  // removes links), which is what keeps every route the same across slot
  // boundaries.
  Topology t;
  t.n_groups_ = n_switches;
  t.num_switches_ = n_switches;
  t.rotor_matchings_ = n_matchings;
  t.rotor_slot_s_ = slot_s;
  t.rotor_duty_cycle_ = duty_cycle;
  t.rotor_active_capacity_ = link_bw * duty_cycle;

  const auto ns = static_cast<std::size_t>(n_switches);
  const auto eps = ns * static_cast<std::size_t>(eps_per_switch);
  const auto globals = ns * static_cast<std::size_t>(n_matchings);
  t.group_first_switch_.reserve(ns);
  t.group_size_.reserve(ns);
  t.group_of_switch_.reserve(ns);
  t.endpoint_switch_.reserve(eps);
  t.injection_link_.reserve(eps);
  t.ejection_link_.reserve(eps);
  t.links_.reserve(2 * eps + globals);
  t.link_kind_.reserve(2 * eps + globals);
  t.init_group_tables();

  for (int s = 0; s < n_switches; ++s) {
    t.group_first_switch_.push_back(s);
    t.group_size_.push_back(1);
    t.group_of_switch_.push_back(s);
  }
  for (int s = 0; s < n_switches; ++s) {
    for (int e = 0; e < eps_per_switch; ++e) {
      const int ep = static_cast<int>(t.endpoint_switch_.size());
      t.endpoint_switch_.push_back(s);
      t.injection_link_.push_back(
          t.add_link(ep, s, LinkKind::Injection, link_bw, hop_latency));
      t.ejection_link_.push_back(
          t.add_link(s, ep, LinkKind::Ejection, link_bw, hop_latency));
    }
  }
  // Matching m: directed link i -> (i + m + 1) mod n from every switch.
  // Matching 0 is live at build time; the rest idle at zero capacity until a
  // RotorSchedule overlay activates them.
  for (int m = 0; m < n_matchings; ++m) {
    const double cap = m == 0 ? t.rotor_active_capacity_ : 0.0;
    for (int i = 0; i < n_switches; ++i) {
      const int j = (i + m + 1) % n_switches;
      t.add_global_link(i, j, i, j, cap, hop_latency);
    }
  }
  return t;
}

std::vector<int> Topology::rotor_matching_links(int m) const {
  if (m < 0 || m >= rotor_matchings_)
    throw std::out_of_range("rotor matching index out of range");
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(num_switches_));
  for (int i = 0; i < num_switches_; ++i) {
    const int id = global_link(i, (i + m + 1) % num_switches_);
    assert(id >= 0);
    ids.push_back(id);
  }
  return ids;
}

}  // namespace xscale::topo
