#include "net/snapshot.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace xscale::net {

namespace {

// Minimal routes that detoured because the overlay failed their direct
// Global bundle (the name predates the retired route cache; perfbench reads
// it). Clean overlays and Local/terminal failures never bump it.
obs::Counter& route_overlay_reroute() {
  static obs::Counter& c = obs::metrics().counter("net.route_cache.overlay_reroute");
  return c;
}

inline bool link_failed(const std::vector<char>* failed, int link_id) {
  return failed != nullptr && (*failed)[static_cast<std::size_t>(link_id)] != 0;
}

}  // namespace

const char* to_string(Routing r) {
  switch (r) {
    case Routing::Minimal: return "minimal";
    case Routing::Valiant: return "valiant";
    case Routing::Adaptive: return "adaptive";
  }
  return "?";
}

TopologySnapshot::TopologySnapshot(topo::Topology topology, FabricConfig cfg)
    : topo_(std::move(topology)), cfg_(cfg) {
  base_cap_.reserve(topo_.links().size());
  for (const auto& l : topo_.links()) {
    const bool terminal = l.kind == topo::LinkKind::Injection ||
                          l.kind == topo::LinkKind::Ejection;
    base_cap_.push_back(terminal ? l.capacity * cfg_.nic_efficiency : l.capacity);
  }
}

int TopologySnapshot::compute_switch_segment(int sa, int sb,
                                             const std::vector<char>* failed,
                                             int* out) const {
  assert(sa != sb);
  if (topo_.is_fat_tree()) {
    const int core = topo_.num_switches() - 1;
    out[0] = topo_.switch_link(sa, core);
    out[1] = topo_.switch_link(core, sb);
    return 2;
  }
  const int ga = topo_.group_of_switch(sa);
  const int gb = topo_.group_of_switch(sb);
  if (ga == gb) {
    out[0] = topo_.switch_link(sa, sb);
    return 1;
  }
  const int gl = topo_.global_link(ga, gb);
  if (gl < 0) throw std::runtime_error("groups not connected");
  if (link_failed(failed, gl)) {
    // Fabric-manager reroute: the direct bundle is down; take the
    // first live one-intermediate-group detour (deterministic sweep).
    for (int gi = 0; gi < topo_.num_groups(); ++gi) {
      if (gi == ga || gi == gb) continue;
      const int l1 = topo_.global_link(ga, gi);
      const int l2 = topo_.global_link(gi, gb);
      if (l1 < 0 || l2 < 0) continue;
      if (link_failed(failed, l1) || link_failed(failed, l2)) continue;
      int n = 0;
      const int gw_a = topo_.gateway_switch(ga, gi);
      if (sa != gw_a) out[n++] = topo_.switch_link(sa, gw_a);
      out[n++] = l1;
      const int in_i = topo_.gateway_switch(gi, ga);
      const int out_i = topo_.gateway_switch(gi, gb);
      if (in_i != out_i) out[n++] = topo_.switch_link(in_i, out_i);
      out[n++] = l2;
      const int gw_b = topo_.gateway_switch(gb, gi);
      if (gw_b != sb) out[n++] = topo_.switch_link(gw_b, sb);
      route_overlay_reroute().inc();
      return n;
    }
    throw std::runtime_error("no live route between groups");
  }
  int n = 0;
  const int gwa = topo_.gateway_switch(ga, gb);
  const int gwb = topo_.gateway_switch(gb, ga);
  if (sa != gwa) out[n++] = topo_.switch_link(sa, gwa);
  out[n++] = gl;
  if (gwb != sb) out[n++] = topo_.switch_link(gwb, sb);
  return n;
}

void TopologySnapshot::minimal_path_into(int src_ep, int dst_ep,
                                         const std::vector<char>* failed,
                                         std::vector<int>& out) const {
  assert(src_ep != dst_ep);
  out.clear();
  out.push_back(topo_.injection_link(src_ep));
  const int sa = topo_.endpoint_switch(src_ep);
  const int sb = topo_.endpoint_switch(dst_ep);
  if (sa != sb) {
    int seg[5];
    const int n = compute_switch_segment(sa, sb, failed, seg);
    out.insert(out.end(), seg, seg + n);
  }
  out.push_back(topo_.ejection_link(dst_ep));
}

void TopologySnapshot::valiant_path_into(int src_ep, int dst_ep, sim::Rng& rng,
                                         const std::vector<char>* failed,
                                         std::vector<int>& out) const {
  const int sa = topo_.endpoint_switch(src_ep);
  const int sb = topo_.endpoint_switch(dst_ep);
  const int ga = topo_.group_of_switch(sa);
  const int gb = topo_.group_of_switch(sb);
  // No non-minimal routing on a fat-tree (one core, nothing to spread over)
  // or a rotor (traffic rides the direct matching link; a two-hop detour's
  // legs belong to different matchings and are never live in the same slot,
  // so a valiant flow would stall forever).
  if (topo_.is_fat_tree() || topo_.is_rotor()) {
    minimal_path_into(src_ep, dst_ep, failed, out);
    return;
  }

  if (ga == gb) {
    // Intra-group non-minimal: detour through a random intermediate switch,
    // spreading a hot switch pair over the group's full connectivity.
    if (sa == sb) {
      minimal_path_into(src_ep, dst_ep, failed, out);
      return;
    }
    const auto [base, n] = topo_.group_switch_range(ga);
    int si = -1;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int cand = base + static_cast<int>(rng.index(static_cast<std::uint64_t>(n)));
      if (cand != sa && cand != sb) {
        si = cand;
        break;
      }
    }
    if (si < 0) {
      minimal_path_into(src_ep, dst_ep, failed, out);
      return;
    }
    out.assign({topo_.injection_link(src_ep), topo_.switch_link(sa, si),
                topo_.switch_link(si, sb), topo_.ejection_link(dst_ep)});
    return;
  }

  // Pick a random intermediate group reachable from both sides.
  const int ng = topo_.num_groups();
  int gi = -1;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int cand = static_cast<int>(rng.index(static_cast<std::uint64_t>(ng)));
    const int l1 = topo_.global_link(ga, cand);
    const int l2 = topo_.global_link(cand, gb);
    if (cand != ga && cand != gb && l1 >= 0 && l2 >= 0 &&
        !link_failed(failed, l1) && !link_failed(failed, l2)) {
      gi = cand;
      break;
    }
  }
  if (gi < 0) {
    minimal_path_into(src_ep, dst_ep, failed, out);
    return;
  }

  out.clear();
  out.push_back(topo_.injection_link(src_ep));
  const int gw_a = topo_.gateway_switch(ga, gi);
  if (sa != gw_a) out.push_back(topo_.switch_link(sa, gw_a));
  out.push_back(topo_.global_link(ga, gi));
  const int in_i = topo_.gateway_switch(gi, ga);   // arrival switch in gi
  const int out_i = topo_.gateway_switch(gi, gb);  // departure switch in gi
  if (in_i != out_i) out.push_back(topo_.switch_link(in_i, out_i));
  out.push_back(topo_.global_link(gi, gb));
  const int gw_b = topo_.gateway_switch(gb, gi);
  if (gw_b != sb) out.push_back(topo_.switch_link(gw_b, sb));
  out.push_back(topo_.ejection_link(dst_ep));
}

void TopologySnapshot::route_into(int src_ep, int dst_ep, sim::Rng& rng,
                                  const std::vector<int>* global_load,
                                  const std::vector<char>* failed,
                                  std::vector<int>& out) const {
  switch (cfg_.routing) {
    case Routing::Minimal:
      minimal_path_into(src_ep, dst_ep, failed, out);
      return;
    case Routing::Valiant:
      valiant_path_into(src_ep, dst_ep, rng, failed, out);
      return;
    case Routing::Adaptive: {
      minimal_path_into(src_ep, dst_ep, failed, out);
      if (topo_.is_fat_tree() || topo_.is_rotor() || global_load == nullptr)
        return;
      // Per-thread detour buffer: warm after the first route, so an adaptive
      // decision allocates nothing.
      static thread_local std::vector<int> val_p;
      valiant_path_into(src_ep, dst_ep, rng, failed, val_p);
      if (val_p.size() == out.size()) return;  // intra-group or fallback
      // UGAL: compare queue-depth proxies (flow counts) on the switch-switch
      // links; the detour uses more hops, so it must look at least
      // `ugal_threshold` times emptier to win.
      auto load_of = [&](const std::vector<int>& p) {
        int worst = 0;
        for (int l : p) {
          const auto kind = topo_.link_kind(l);
          if (kind == topo::LinkKind::Global || kind == topo::LinkKind::Local)
            worst = std::max(worst, (*global_load)[static_cast<std::size_t>(l)]);
        }
        return worst;
      };
      const int lm = load_of(out);
      const int lv = load_of(val_p);
      if (static_cast<double>(lm) >
          cfg_.ugal_threshold * static_cast<double>(lv + 1))
        out.assign(val_p.begin(), val_p.end());
      return;
    }
  }
  minimal_path_into(src_ep, dst_ep, failed, out);
}

std::shared_ptr<const TopologySnapshot> make_snapshot(topo::Topology topology,
                                                      FabricConfig cfg) {
  return std::make_shared<const TopologySnapshot>(std::move(topology), cfg);
}

}  // namespace xscale::net
