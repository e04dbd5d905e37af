#include "net/fabric.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace xscale::net {

// --- FabricOverlay -----------------------------------------------------------

FabricOverlay::FabricOverlay(std::shared_ptr<const TopologySnapshot> snap)
    : snap_(std::move(snap)) {
  if (!snap_) throw std::invalid_argument("FabricOverlay: null snapshot");
}

std::size_t FabricOverlay::check_link(int link_id) const {
  const auto id = static_cast<std::size_t>(link_id);
  if (link_id < 0 || id >= snap_->num_links())
    throw std::out_of_range("FabricOverlay: link id " + std::to_string(link_id) +
                            " out of range [0, " +
                            std::to_string(snap_->num_links()) + ")");
  return id;
}

void FabricOverlay::materialize() {
  if (failed_.empty()) failed_.assign(snap_->num_links(), 0);
  if (cow_cap_.empty()) cow_cap_ = snap_->base_capacities();
}

double FabricOverlay::restored_capacity(int link_id) const {
  for (const auto& [id, cap] : overrides_)
    if (id == link_id) return cap;
  return snap_->base_capacities()[static_cast<std::size_t>(link_id)];
}

bool FabricOverlay::fail_link(int link_id) {
  const std::size_t id = check_link(link_id);
  if (!failed_.empty() && failed_[id]) return false;  // idempotent no-op
  materialize();
  failed_[id] = 1;
  failed_ids_.push_back(link_id);
  if (snap_->topology().link_kind(link_id) == topo::LinkKind::Global)
    ++failed_globals_;
  cow_cap_[id] = 0.0;
  ++cap_epoch_;
  return true;
}

bool FabricOverlay::restore_link(int link_id) {
  const std::size_t id = check_link(link_id);
  if (failed_.empty() || !failed_[id]) return false;  // idempotent no-op
  failed_[id] = 0;
  failed_ids_.erase(std::find(failed_ids_.begin(), failed_ids_.end(), link_id));
  if (snap_->topology().link_kind(link_id) == topo::LinkKind::Global)
    --failed_globals_;
  cow_cap_[id] = restored_capacity(link_id);
  ++cap_epoch_;
  return true;
}

bool FabricOverlay::set_capacity_no_bump(int link_id, double capacity) {
  const std::size_t id = check_link(link_id);
  for (auto& [oid, cap] : overrides_) {
    if (oid != link_id) continue;
    if (cap == capacity) return false;
    cap = capacity;
    const bool was_live = failed_.empty() || !failed_[id];
    if (was_live) {  // a failed link stays at 0: no observable change yet
      // cow_cap_ may still be empty: a first set equal to the base capacity
      // records the override but never materialises.
      materialize();
      cow_cap_[id] = capacity;
    }
    return was_live;
  }
  overrides_.emplace_back(link_id, capacity);
  const bool live = failed_.empty() || !failed_[id];
  if (live && effective_capacities()[id] == capacity) return false;
  materialize();
  if (live) cow_cap_[id] = capacity;
  return live;
}

bool FabricOverlay::set_link_capacity(int link_id, double capacity) {
  if (!set_capacity_no_bump(link_id, capacity)) return false;
  ++cap_epoch_;
  return true;
}

bool FabricOverlay::set_link_capacities(
    const std::vector<std::pair<int, double>>& updates) {
  bool changed = false;
  for (const auto& [id, cap] : updates)
    changed = set_capacity_no_bump(id, cap) || changed;
  if (changed) ++cap_epoch_;
  return changed;
}

bool FabricOverlay::clear_link_capacity(int link_id) {
  const std::size_t id = check_link(link_id);
  auto it = std::find_if(overrides_.begin(), overrides_.end(),
                         [&](const auto& o) { return o.first == link_id; });
  if (it == overrides_.end()) return false;
  overrides_.erase(it);
  if (!failed_.empty() && failed_[id]) return false;  // takes effect on restore
  const double base = snap_->base_capacities()[id];
  if (!cow_cap_.empty() && cow_cap_[id] != base) {
    cow_cap_[id] = base;
    ++cap_epoch_;
    return true;
  }
  return false;
}

bool FabricOverlay::clear() {
  const bool changed = !failed_ids_.empty() ||
                       (!cow_cap_.empty() && cow_cap_ != snap_->base_capacities());
  if (!failed_.empty()) std::fill(failed_.begin(), failed_.end(), char{0});
  failed_ids_.clear();
  overrides_.clear();
  failed_globals_ = 0;
  if (!cow_cap_.empty()) cow_cap_ = snap_->base_capacities();
  if (changed) ++cap_epoch_;
  return changed;
}

// --- Fabric ------------------------------------------------------------------

Fabric::Fabric(topo::Topology topology, FabricConfig cfg)
    : snap_(make_snapshot(std::move(topology), cfg)), overlay_(snap_) {}

Fabric::Fabric(std::shared_ptr<const TopologySnapshot> snapshot)
    : snap_(std::move(snapshot)), overlay_(snap_) {}

Fabric::~Fabric() = default;
Fabric::Fabric(Fabric&&) noexcept = default;
Fabric& Fabric::operator=(Fabric&&) noexcept = default;

void Fabric::route_into(int src_ep, int dst_ep, sim::Rng& rng,
                        const std::vector<int>* global_load,
                        std::vector<int>& out) const {
  snap_->route_into(src_ep, dst_ep, rng, global_load,
                    overlay_.routing_failure_view(), out);
}

std::vector<int> Fabric::route(int src_ep, int dst_ep, sim::Rng& rng,
                               const std::vector<int>* global_load) const {
  std::vector<int> out;
  route_into(src_ep, dst_ep, rng, global_load, out);
  return out;
}

std::vector<double> Fabric::steady_rates(const std::vector<std::pair<int, int>>& pairs,
                                         const std::vector<double>* weights,
                                         std::vector<std::vector<int>>* paths_out,
                                         const std::vector<double>* rate_caps) const {
  const auto& topo = topology();
  const int n_eps = topo.num_endpoints();
  for (const auto& [s, d] : pairs)
    if (s < 0 || d < 0 || s >= n_eps || d >= n_eps)
      throw std::out_of_range("Fabric::steady_rates: endpoint pair (" +
                              std::to_string(s) + ", " + std::to_string(d) +
                              ") out of range [0, " + std::to_string(n_eps) + ")");
  sim::Rng rng(config().seed);
  std::vector<std::vector<int>> paths;
  paths.reserve(pairs.size());
  // Per-link flow counts for adaptive routing. The per-thread buffer is kept
  // all-zero between calls and reset by walking the routed paths, so a call
  // costs O(nnz) here rather than O(num_links), also when routing throws.
  static thread_local std::vector<int> load;
  if (load.size() < topo.links().size()) load.resize(topo.links().size(), 0);
  auto reset_load = [&] {
    for (const auto& p : paths)
      for (int l : p) load[static_cast<std::size_t>(l)] = 0;
  };
  try {
    for (const auto& [s, d] : pairs) {
      paths.push_back(route(s, d, rng, &load));
      for (int l : paths.back()) ++load[static_cast<std::size_t>(l)];
    }
  } catch (...) {
    reset_load();
    throw;
  }
  reset_load();
  const std::vector<double>& eff_cap = overlay_.effective_capacities();
  std::vector<double> rates;
  if (rate_caps != nullptr) {
    // Realize caps as private virtual links appended to the capped flow.
    std::vector<double> cap = eff_cap;
    auto capped_paths = paths;
    for (std::size_t f = 0; f < capped_paths.size(); ++f) {
      const double c = (*rate_caps)[f];
      if (c <= 0) continue;
      capped_paths[f].push_back(static_cast<int>(cap.size()));
      cap.push_back(c);  // bounds the flow's total rate
    }
    rates = max_min_rates_components(cap, capped_paths, weights);
  } else {
    rates = max_min_rates_components(eff_cap, paths, weights);
  }
  if (!config().congestion_control) apply_hol_blocking(paths, rates);
  if (paths_out) *paths_out = std::move(paths);
  return rates;
}

void Fabric::apply_hol_blocking(const std::vector<std::vector<int>>& paths,
                                std::vector<double>& rates) const {
  // Without hardware congestion control, a saturated (typically ejection)
  // link backs frames up into the switch, and every flow crossing that
  // switch slows to the oversubscribed link's drain ratio. We compute, per
  // switch, the worst oversubscription of any link it sources, then scale
  // each flow by the worst factor along its path.
  // Unthrottled desire per flow: its share of the injection link it enters
  // through (ranks sharing a NIC cannot each offer the full NIC rate).
  const auto& topo = topology();
  const std::vector<double>& eff_cap = overlay_.effective_capacities();
  std::vector<int> inj_count(topo.links().size(), 0);
  for (const auto& p : paths) ++inj_count[static_cast<std::size_t>(p.front())];
  std::vector<double> demand(topo.links().size(), 0.0);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    const auto inj = static_cast<std::size_t>(paths[f].front());
    const double desire = eff_cap[inj] / std::max(1, inj_count[inj]);
    for (int l : paths[f]) demand[static_cast<std::size_t>(l)] += desire;
  }
  std::vector<double> switch_factor(static_cast<std::size_t>(topo.num_switches()), 1.0);
  for (const auto& l : topo.links()) {
    if (l.src >= topo.num_switches()) continue;  // injection links: src is an endpoint
    const double d = demand[static_cast<std::size_t>(l.id)];
    if (d > eff_cap[static_cast<std::size_t>(l.id)]) {
      const double factor = eff_cap[static_cast<std::size_t>(l.id)] / d;
      auto& sf = switch_factor[static_cast<std::size_t>(l.src)];
      sf = std::min(sf, factor);
    }
  }
  for (std::size_t f = 0; f < paths.size(); ++f) {
    double factor = 1.0;
    for (int l : paths[f]) {
      const auto& lk = topo.link(l);
      if (lk.src < topo.num_switches())
        factor = std::min(factor, switch_factor[static_cast<std::size_t>(lk.src)]);
    }
    rates[f] *= factor;
  }
}

double Fabric::base_latency(int src_ep, int dst_ep) const {
  static thread_local std::vector<int> scratch;
  snap_->minimal_path_into(src_ep, dst_ep, overlay_.routing_failure_view(),
                           scratch);
  double lat = 0;
  for (int l : scratch) lat += topology().link(l).latency_s;
  return lat;
}

int Fabric::minimal_hops(int src_ep, int dst_ep) const {
  static thread_local std::vector<int> scratch;
  snap_->minimal_path_into(src_ep, dst_ep, overlay_.routing_failure_view(),
                           scratch);
  return static_cast<int>(scratch.size());
}

}  // namespace xscale::net
