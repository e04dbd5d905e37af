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
  // Check the whole batch first: a bad id found mid-batch would leave the
  // pairs before it applied with no epoch bump, and consumers keyed on the
  // epoch (FlowSim's freeze ledger and share summary) would go stale.
  for (const auto& update : updates) check_link(update.first);
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

void Fabric::check_endpoints(int src_ep, int dst_ep, const char* who) const {
  const int n_eps = topology().num_endpoints();
  if (src_ep < 0 || dst_ep < 0 || src_ep >= n_eps || dst_ep >= n_eps)
    throw std::out_of_range(std::string(who) + ": endpoint pair (" +
                            std::to_string(src_ep) + ", " +
                            std::to_string(dst_ep) + ") out of range [0, " +
                            std::to_string(n_eps) + ")");
}

void Fabric::route_into(int src_ep, int dst_ep, sim::Rng& rng,
                        const std::vector<int>* global_load,
                        std::vector<int>& out) const {
  check_endpoints(src_ep, dst_ep, "Fabric::route_into");
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
  for (const auto& [s, d] : pairs) check_endpoints(s, d, "Fabric::steady_rates");
  const auto check_size = [&](const std::vector<double>* v, const char* what) {
    if (v != nullptr && v->size() != pairs.size())
      throw std::invalid_argument(
          std::string("Fabric::steady_rates: ") + what + " has " +
          std::to_string(v->size()) + " entries for " +
          std::to_string(pairs.size()) + " pairs");
  };
  check_size(weights, "weights");
  check_size(rate_caps, "rate_caps");
  sim::Rng rng(config().seed);
  const std::size_t num_links = snap_->num_links();
  const double* eff_cap = overlay_.effective_capacities().data();
  const std::vector<char>* failed = overlay_.routing_failure_view();
  // Each pair is routed into one reused buffer and appended at once to the
  // thread's compact problem (solver.hpp), so the call costs O(pairs + nnz)
  // whatever the fabric's size. Rate caps become virtual links private to
  // the capped flow, so capped flows still take part in max-min fairness.
  CompactPaths& problem = thread_compact_paths();
  problem.begin(num_links);
  static thread_local std::vector<int> path;
  // Per-link flow counts for adaptive routing. The per-thread buffer is kept
  // all-zero between calls and reset through the links the problem touched,
  // also when routing throws.
  static thread_local std::vector<int> load;
  if (load.size() < num_links) load.resize(num_links, 0);
  const auto reset_load = [&] {
    for (int l : problem.original_ids())
      if (l >= 0) load[static_cast<std::size_t>(l)] = 0;
  };
  try {
    for (std::size_t f = 0; f < pairs.size(); ++f) {
      snap_->route_into(pairs[f].first, pairs[f].second, rng, &load, failed,
                        path);
      for (int l : path) {
        problem.push_link(l, eff_cap);
        ++load[static_cast<std::size_t>(l)];
      }
      // `!(cap <= 0)`, not `cap > 0`: a NaN cap gets its link, and the
      // solver's validation rejects it.
      const double cap = rate_caps != nullptr ? (*rate_caps)[f] : 0.0;
      if (!(cap <= 0)) problem.push_virtual(cap);
      problem.end_path();
    }
  } catch (...) {
    reset_load();
    throw;
  }
  reset_load();
  std::vector<double> rates(pairs.size(), 0.0);
  max_min_rates_compact(problem, weights ? weights->data() : nullptr,
                        rates.data());
  if (!config().congestion_control) apply_hol_blocking(problem, rates);
  if (paths_out) {
    const PathsCsr& csr = problem.paths();
    const std::vector<int>& link_of = problem.original_ids();
    paths_out->assign(pairs.size(), {});
    for (std::size_t f = 0; f < pairs.size(); ++f)
      for (int i = csr.offsets[f]; i < csr.offsets[f + 1]; ++i) {
        const int l = link_of[static_cast<std::size_t>(
            csr.link_ids[static_cast<std::size_t>(i)])];
        if (l >= 0) (*paths_out)[f].push_back(l);
      }
  }
  return rates;
}

void Fabric::apply_hol_blocking(const CompactPaths& problem,
                                std::vector<double>& rates) const {
  // Without hardware congestion control, a saturated (typically ejection)
  // link backs frames up into the switch, and every flow crossing that
  // switch slows to the oversubscribed link's drain ratio. We compute, per
  // switch, the worst oversubscription of any link it sources, then scale
  // each flow by the worst factor along its path.
  // Unthrottled desire per flow: its share of the injection link it enters
  // through (ranks sharing a NIC cannot each offer the full NIC rate).
  // Everything is indexed by compact id and visits the touched links and
  // their switches only; a virtual (rate-cap) link has no source switch, so
  // the demand it collects is never read.
  const auto& topo = topology();
  const int n_sw = topo.num_switches();
  const PathsCsr& csr = problem.paths();
  const std::vector<double>& cap = problem.capacities();
  const std::vector<int>& link_of = problem.original_ids();
  const std::size_t nl = cap.size();
  const int* lids = csr.link_ids.data();
  const int* off = csr.offsets.data();
  const std::size_t nf = csr.num_flows();
  static thread_local std::vector<int> inj_count;  // [compact id]
  static thread_local std::vector<double> demand;  // [compact id]
  // [switch] kept all-1.0 between calls, reset through the touched links.
  static thread_local std::vector<double> switch_factor;
  if (switch_factor.size() < static_cast<std::size_t>(n_sw))
    switch_factor.resize(static_cast<std::size_t>(n_sw), 1.0);
  inj_count.assign(nl, 0);
  demand.assign(nl, 0.0);
  for (std::size_t f = 0; f < nf; ++f) ++inj_count[static_cast<std::size_t>(lids[off[f]])];
  for (std::size_t f = 0; f < nf; ++f) {
    const auto inj = static_cast<std::size_t>(lids[off[f]]);
    const double desire = cap[inj] / std::max(1, inj_count[inj]);
    for (int i = off[f]; i < off[f + 1]; ++i)
      demand[static_cast<std::size_t>(lids[i])] += desire;
  }
  const auto src_switch = [&](std::size_t c) {
    const int l = link_of[c];
    return l < 0 ? -1 : topo.link(l).src < n_sw ? topo.link(l).src : -1;
  };
  for (std::size_t c = 0; c < nl; ++c) {
    const int sw = src_switch(c);  // injection links: src is an endpoint
    if (sw >= 0 && demand[c] > cap[c]) {
      auto& sf = switch_factor[static_cast<std::size_t>(sw)];
      sf = std::min(sf, cap[c] / demand[c]);
    }
  }
  for (std::size_t f = 0; f < nf; ++f) {
    double factor = 1.0;
    for (int i = off[f]; i < off[f + 1]; ++i) {
      const int sw = src_switch(static_cast<std::size_t>(lids[i]));
      if (sw >= 0)
        factor = std::min(factor, switch_factor[static_cast<std::size_t>(sw)]);
    }
    rates[f] *= factor;
  }
  for (std::size_t c = 0; c < nl; ++c) {
    const int sw = src_switch(c);
    if (sw >= 0) switch_factor[static_cast<std::size_t>(sw)] = 1.0;
  }
}

double Fabric::base_latency(int src_ep, int dst_ep) const {
  check_endpoints(src_ep, dst_ep, "Fabric::base_latency");
  static thread_local std::vector<int> scratch;
  snap_->minimal_path_into(src_ep, dst_ep, overlay_.routing_failure_view(),
                           scratch);
  double lat = 0;
  for (int l : scratch) lat += topology().link(l).latency_s;
  return lat;
}

int Fabric::minimal_hops(int src_ep, int dst_ep) const {
  check_endpoints(src_ep, dst_ep, "Fabric::minimal_hops");
  static thread_local std::vector<int> scratch;
  snap_->minimal_path_into(src_ep, dst_ep, overlay_.routing_failure_view(),
                           scratch);
  return static_cast<int>(scratch.size());
}

}  // namespace xscale::net
