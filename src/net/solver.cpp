#include "net/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "net/simd.hpp"
#include "sim/parallel.hpp"

namespace xscale::net {

namespace {

// Malformed inputs must not silently become garbage rates (NaN capacities
// survive the share arithmetic as 0 via std::max, and with -DNDEBUG a bare
// assert vanishes entirely). These checks hold in release builds.
void validate_flat(const double* capacities, std::size_t num_links,
                   const double* weights, std::size_t num_flows) {
  for (std::size_t l = 0; l < num_links; ++l)
    if (!std::isfinite(capacities[l]) || capacities[l] < 0.0)
      throw std::invalid_argument("max_min_rates: capacities must be finite and >= 0");
  if (weights)
    for (std::size_t f = 0; f < num_flows; ++f)
      if (!std::isfinite(weights[f]) || weights[f] < 0.0)
        throw std::invalid_argument("max_min_rates: weights must be finite and >= 0");
}

void validate(const std::vector<double>& capacities,
              const std::vector<std::vector<int>>& paths,
              const std::vector<double>* weights) {
  if (weights && weights->size() != paths.size())
    throw std::invalid_argument("max_min_rates: weights/paths size mismatch");
  validate_flat(capacities.data(), capacities.size(),
                weights ? weights->data() : nullptr, paths.size());
}

// Grow-only sizing; reports whether the buffer had to allocate, so the
// scratch-reuse probe can count allocation-free steady-state re-solves.
template <typename T>
bool ensure(std::vector<T>& v, std::size_t n) {
  const bool grew = v.capacity() < n;
  v.resize(n);
  return grew;
}

// The pre-CSR water-filling core, retained as the differential oracle;
// inputs already validated. The only change since PR 5: active-link list
// membership is first-seen-deduplicated (`on_list`) instead of keyed on
// `active_w == 0.0`. The two are identical unless a link's first crossers
// all have weight exactly 0 (the old key re-pushed such a link, producing
// duplicate list entries); the dense-SoA CSR core cannot represent
// duplicates, so both sides now share the dedup semantics and stay
// bit-identical on every input, zero-weight flows included (DESIGN.md §9).
std::vector<double> solve_core_reference(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights, SolveStats* stats) {
  const std::size_t nf = paths.size();
  std::vector<double> rate(nf, 0.0);

  // Per-link: residual capacity, total unfrozen weight, flows crossing it.
  std::vector<double> residual = capacities;
  std::vector<double> active_w(capacities.size(), 0.0);
  std::vector<std::vector<int>> flows_on(capacities.size());
  std::vector<char> frozen(nf, 0);

  auto w_of = [&](std::size_t f) { return weights ? (*weights)[f] : 1.0; };

  std::vector<int> active_links;
  std::vector<char> on_list(capacities.size(), 0);
  for (std::size_t f = 0; f < nf; ++f) {
    assert(!paths[f].empty());
    for (int l : paths[f]) {
      if (!on_list[static_cast<std::size_t>(l)]) {
        on_list[static_cast<std::size_t>(l)] = 1;
        active_links.push_back(l);
      }
      active_w[static_cast<std::size_t>(l)] += w_of(f);
      flows_on[static_cast<std::size_t>(l)].push_back(static_cast<int>(f));
    }
  }

  std::size_t remaining = nf;
  std::int64_t iterations = 0;
  std::int64_t bottlenecks = 0;
  while (remaining > 0) {
    ++iterations;
    // Find the smallest per-weight share among links with unfrozen flows.
    double min_share = std::numeric_limits<double>::infinity();
    for (int l : active_links) {
      const auto lu = static_cast<std::size_t>(l);
      if (active_w[lu] <= 0.0) continue;
      min_share =
          std::min(min_share, std::max(0.0, residual[lu]) / active_w[lu]);
    }
    // No link constrains the remaining flows (e.g. every unfrozen flow has
    // weight 0, so its links never activate): there is no finite max-min
    // allocation.
    if (!std::isfinite(min_share))
      throw std::runtime_error(
          "max_min_rates: no finite bottleneck share for remaining flows");

    // Freeze every flow crossing any link whose share ties the minimum
    // EXACTLY. Symmetric traffic patterns produce massive bitwise ties
    // (identical capacity / crosser-count arithmetic) and those still
    // collapse into one iteration. The tie test must not carry a relative
    // slack: a near-tie tolerance lets the minimum link "capture" a link
    // from an unrelated connected component whose share drifted within the
    // window, freezing its flows at the *other* component's share — which
    // breaks the bit-identity between this global solve and the
    // per-component decomposition that `max_min_rates_components` and the
    // incremental FlowSim paths rely on. With exact ties, each component's
    // firing sequence in the global solve is precisely its local solve's
    // sequence, so decomposition is lossless at the ULP level.
    const double cutoff = min_share;
    for (int l : active_links) {
      const auto lu = static_cast<std::size_t>(l);
      if (active_w[lu] <= 0.0) continue;
      if (std::max(0.0, residual[lu]) / active_w[lu] > cutoff) continue;
      ++bottlenecks;
      for (int fi : flows_on[lu]) {
        const auto fu = static_cast<std::size_t>(fi);
        if (frozen[fu]) continue;
        frozen[fu] = 1;
        rate[fu] = min_share * w_of(fu);
        --remaining;
        for (int pl : paths[fu]) {
          const auto plu = static_cast<std::size_t>(pl);
          residual[plu] -= rate[fu];
          active_w[plu] -= w_of(fu);
        }
      }
    }
    // Drop links with no remaining unfrozen flows.
    std::erase_if(active_links,
                  [&](int l) { return active_w[static_cast<std::size_t>(l)] <= 1e-12; });
  }

  if (stats) {
    stats->iterations = iterations;
    stats->bottleneck_links = bottlenecks;
  }
  return rate;
}

// Union-find over compact link ids, path-halving; `parent` is caller-owned
// scratch initialised to the identity.
int dsu_find(std::vector<int>& parent, int x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

void dsu_unite(std::vector<int>& parent, int a, int b) {
  a = dsu_find(parent, a);
  b = dsu_find(parent, b);
  if (a != b) parent[static_cast<std::size_t>(b)] = a;
}

// Stable counting sort of the flows [0, n) with level[f] in 1..levels into
// `order`, grouped by level: group k is order[off[k] .. off[k+1]). Flows at
// level 0 are skipped. Returns whether a buffer had to grow.
bool group_by_level(const int* level, std::size_t n, int levels,
                    std::vector<int>& off, std::vector<int>& order) {
  const auto nl = static_cast<std::size_t>(levels);
  bool grew = ensure(off, nl + 2);
  grew |= ensure(order, n);
  std::fill(off.begin(), off.begin() + static_cast<std::ptrdiff_t>(nl + 2), 0);
  for (std::size_t f = 0; f < n; ++f)
    if (level[f] > 0) ++off[static_cast<std::size_t>(level[f]) + 1];
  for (std::size_t k = 1; k <= nl + 1; ++k) off[k] += off[k - 1];
  // Fill through off[k + 1] as the cursor of group k; afterwards it has
  // advanced to the group's end, which is where group k + 1 begins.
  for (std::size_t f = 0; f < n; ++f)
    if (level[f] > 0)
      order[static_cast<std::size_t>(off[static_cast<std::size_t>(level[f])]++)] =
          static_cast<int>(f);
  for (std::size_t k = nl + 1; k > 0; --k) off[k] = off[k - 1];
  off[0] = 0;
  return grew;
}

}  // namespace

void max_min_rates_csr(const double* capacities, std::size_t num_links,
                       const PathsCsr& paths, const double* weights,
                       double* rates_out, SolveStats* stats,
                       SolveScratch& s, const FreezePrefix* prefix,
                       int* levels_out) {
  const std::size_t nf = paths.num_flows();
  if (stats) *stats = SolveStats{};
  if (nf == 0) return;
  validate_flat(capacities, num_links, weights, nf);
  if (prefix && prefix->levels <= 0) prefix = nullptr;
  if (prefix && weights)
    throw std::invalid_argument("max_min_rates_csr: a freeze prefix needs unit weights");

  const int* lids = paths.link_ids.data();
  const int* off = paths.offsets.data();
  const std::size_t nnz = paths.nnz();

  // Size the scratch first so a warm re-solve is provably allocation-free;
  // values are (re)written below, so prior contents never leak into output.
  bool grew = false;
  grew |= ensure(s.residual, num_links);
  grew |= ensure(s.active_w, num_links);
  grew |= ensure(s.link_pos, num_links);
  grew |= ensure(s.frozen, nf);
  grew |= ensure(s.t_off, num_links + 1);
  grew |= ensure(s.t_cursor, num_links);
  grew |= ensure(s.t_flow, nnz);
  if (s.active_links.capacity() < num_links) {
    grew = true;
    s.active_links.reserve(num_links);
  }
  s.active_links.clear();
  if (prefix) {
    // Level groups first: they are a pure function of the prefix.
    grew |= group_by_level(prefix->level, nf, prefix->levels, s.replay_off,
                           s.replay_flow);
    if (prefix->arrival >= 0) {
      const auto a = static_cast<std::size_t>(prefix->arrival);
      grew |= ensure(s.probe_count,
                     static_cast<std::size_t>(off[a + 1] - off[a]) *
                         static_cast<std::size_t>(prefix->levels + 1));
    }
  }
  // Recorded, not counted here: worker threads each warm a private scratch,
  // so a process-wide counter incremented per solve would depend on the
  // thread count and break the byte-identical metrics contract. Owners with
  // deterministic call sites (FlowSim) feed `net.solver.scratch_reuse`.
  s.last_solve_allocated = grew;

  // residual / active_w are position-indexed into the dense SoA and written
  // at first encounter below; only the id->position map needs clearing.
  std::fill(s.link_pos.begin(), s.link_pos.end(), -1);
  std::fill(s.frozen.begin(), s.frozen.end(), 0);
  std::fill(rates_out, rates_out + nf, 0.0);

  // Transposed link->flow incidence by counting sort. Flows land in
  // ascending flow order within each link — the same order the reference
  // builds its per-link flow lists, so the freeze sweep visits flows
  // identically and every output bit matches.
  std::fill(s.t_off.begin(), s.t_off.end(), 0);
  for (std::size_t i = 0; i < nnz; ++i)
    ++s.t_off[static_cast<std::size_t>(lids[i]) + 1];
  for (std::size_t l = 1; l <= num_links; ++l) s.t_off[l] += s.t_off[l - 1];
  std::copy(s.t_off.begin(), s.t_off.end() - 1, s.t_cursor.begin());

  // Dense SoA build: every crossed link gets one position (first-seen
  // order, deduplicated via link_pos) and its residual / active weight live
  // at that position, contiguous for the scan kernel.
  auto w_of = [&](std::size_t f) { return weights ? weights[f] : 1.0; };
  for (std::size_t f = 0; f < nf; ++f) {
    assert(off[f] < off[f + 1]);
    for (int i = off[f]; i < off[f + 1]; ++i) {
      const auto lu = static_cast<std::size_t>(lids[i]);
      int p = s.link_pos[lu];
      if (p < 0) {
        p = static_cast<int>(s.active_links.size());
        s.link_pos[lu] = p;
        s.active_links.push_back(lids[i]);
        s.residual[static_cast<std::size_t>(p)] = capacities[lu];
        s.active_w[static_cast<std::size_t>(p)] = 0.0;
      }
      s.active_w[static_cast<std::size_t>(p)] += w_of(f);
      s.t_flow[static_cast<std::size_t>(s.t_cursor[lu]++)] =
          static_cast<int>(f);
    }
  }

  // One kernel resolution per solve (simd.hpp pins scalar == AVX2 bitwise).
  const MinShareScanFn kernel = min_share_scan();

  // Tandem compaction: drop links with no remaining unfrozen flows,
  // keeping positions dense and first-seen-ordered (what std::erase_if
  // did for the id-indexed layout).
  auto compact = [&] {
    std::size_t w = 0;
    for (std::size_t pi = 0; pi < s.active_links.size(); ++pi) {
      const int l = s.active_links[pi];
      if (s.active_w[pi] <= 1e-12) {
        s.link_pos[static_cast<std::size_t>(l)] = -1;
        continue;
      }
      s.active_links[w] = l;
      s.residual[w] = s.residual[pi];
      s.active_w[w] = s.active_w[pi];
      s.link_pos[static_cast<std::size_t>(l)] = static_cast<int>(w);
      ++w;
    }
    s.active_links.resize(w);
  };

  std::size_t remaining = nf;
  std::int64_t iterations = 0;
  std::int64_t bottlenecks = 0;
  std::int64_t replayed = 0;
  if (prefix) {
    // Re-freeze the recorded levels in order, each flow at its recorded
    // rate, debiting its links — the arithmetic the cold loop would do for
    // these levels (DESIGN.md §9). Within a level every rate is the level's
    // share, so the subtraction order inside a group does not matter.
    const int levels = prefix->levels;
    const auto stride = static_cast<std::size_t>(levels + 1);
    const int a = prefix->arrival;
    const int a_b = a >= 0 ? off[a] : 0;
    const int a_e = a >= 0 ? off[a + 1] : 0;
    if (a >= 0) {
      // Per arrival link, how many prefix flows of each level cross it.
      std::fill(s.probe_count.begin(),
                s.probe_count.begin() +
                    static_cast<std::ptrdiff_t>(
                        static_cast<std::size_t>(a_e - a_b) * stride),
                0);
      for (int i = a_b; i < a_e; ++i) {
        const auto lu = static_cast<std::size_t>(lids[i]);
        int* cnt = s.probe_count.data() + static_cast<std::size_t>(i - a_b) * stride;
        for (int ti = s.t_off[lu]; ti < s.t_off[lu + 1]; ++ti)
          ++cnt[prefix->level[static_cast<std::size_t>(
              s.t_flow[static_cast<std::size_t>(ti)])]];
      }
    }
    // Could an arrival link fire at level k's share? Its firing test reads
    // the link after j of the level's J crossers froze earlier in the same
    // sweep, for whichever j the sweep order yields — so every j is checked.
    // Until the arrival freezes, its links keep an active weight >= 1 and
    // are never compacted, so every position is live.
    auto arrival_may_fire = [&](int k, double share) {
      for (int i = a_b; i < a_e; ++i) {
        const auto p = static_cast<std::size_t>(
            s.link_pos[static_cast<std::size_t>(lids[i])]);
        double r = s.residual[p];
        const double aw = s.active_w[p];
        const int crossers =
            s.probe_count[static_cast<std::size_t>(i - a_b) * stride +
                          static_cast<std::size_t>(k)];
        for (int j = 0; j <= crossers; ++j) {
          if (std::max(0.0, r) / (aw - j) <= share) return true;
          r -= share;
        }
      }
      return false;
    };
    int k = 1;
    for (; k <= levels; ++k) {
      const int b = s.replay_off[static_cast<std::size_t>(k)];
      const int e = s.replay_off[static_cast<std::size_t>(k) + 1];
      assert(b < e);  // levels are renumbered densely
      const double share =
          prefix->rate[static_cast<std::size_t>(s.replay_flow[static_cast<std::size_t>(b)])];
      if (a >= 0 && arrival_may_fire(k, share)) break;
      for (int gi = b; gi < e; ++gi) {
        const auto fu = static_cast<std::size_t>(s.replay_flow[static_cast<std::size_t>(gi)]);
        s.frozen[fu] = 1;
        rates_out[fu] = prefix->rate[fu];
        if (levels_out) levels_out[fu] = k;
        // No compaction runs during the replay, so every position is live.
        for (int pi = off[fu]; pi < off[fu + 1]; ++pi) {
          const auto p = static_cast<std::size_t>(
              s.link_pos[static_cast<std::size_t>(lids[pi])]);
          s.residual[p] -= rates_out[fu];
          s.active_w[p] -= 1.0;
        }
      }
      replayed += e - b;
    }
    remaining -= static_cast<std::size_t>(replayed);
    iterations = k - 1;
    // One compaction stands for the cold loop's per-level ones: a link that
    // went dead at an earlier level has no unfrozen crosser left, so no
    // later level subtracts from it, and unit weights make the dead test
    // exact at every step.
    if (replayed > 0) compact();
  }
  while (remaining > 0) {
    ++iterations;
    const std::size_t n_active = s.active_links.size();
    const double min_share =
        kernel(s.residual.data(), s.active_w.data(), 0, n_active);
    if (!std::isfinite(min_share))
      throw std::runtime_error(
          "max_min_rates: no finite bottleneck share for remaining flows");

    // Exact-tie firing — see solve_core_reference on why the cutoff carries
    // no relative slack (component decomposability of the bits). The sweep
    // walks active positions; the dense values are the same doubles the
    // scan kernel just read.
    const double cutoff = min_share;
    for (std::size_t pi = 0; pi < n_active; ++pi) {
      const double aw = s.active_w[pi];
      if (aw <= 0.0) continue;
      if (std::max(0.0, s.residual[pi]) / aw > cutoff) continue;
      const auto lu = static_cast<std::size_t>(s.active_links[pi]);
      ++bottlenecks;
      for (int ti = s.t_off[lu]; ti < s.t_off[lu + 1]; ++ti) {
        const auto fu = static_cast<std::size_t>(s.t_flow[static_cast<std::size_t>(ti)]);
        if (s.frozen[fu]) continue;
        s.frozen[fu] = 1;
        rates_out[fu] = min_share * w_of(fu);
        if (levels_out) levels_out[fu] = static_cast<int>(iterations);
        --remaining;
        for (int pi2 = off[fu]; pi2 < off[fu + 1]; ++pi2) {
          // Links already compacted off the active list take no further
          // subtractions; their dense cells are dead and never read
          // (pre-SoA code subtracted into dead id-indexed cells — same
          // observable state, DESIGN.md §9).
          const int p = s.link_pos[static_cast<std::size_t>(lids[pi2])];
          if (p < 0) continue;
          s.residual[static_cast<std::size_t>(p)] -= rates_out[fu];
          s.active_w[static_cast<std::size_t>(p)] -= w_of(fu);
        }
      }
    }
    compact();
  }

  if (stats) {
    stats->iterations = iterations;
    stats->bottleneck_links = bottlenecks;
    stats->replayed_flows = replayed;
  }
}

std::vector<double> max_min_rates(const std::vector<double>& capacities,
                                  const std::vector<std::vector<int>>& paths,
                                  const std::vector<double>* weights,
                                  SolveStats* stats) {
  if (paths.empty()) {
    if (stats) *stats = SolveStats{};
    return {};
  }
  if (weights && weights->size() != paths.size())
    throw std::invalid_argument("max_min_rates: weights/paths size mismatch");
  // Adapter: pack into a per-thread CSR arena (component workers and user
  // threads never share) and run the flat core.
  static thread_local PathsCsr csr;
  static thread_local SolveScratch scratch;
  csr.clear();
  for (const auto& p : paths) {
    assert(!p.empty());
    csr.push_path(p.begin(), p.end());
  }
  std::vector<double> rates(paths.size(), 0.0);
  max_min_rates_csr(capacities.data(), capacities.size(), csr,
                    weights ? weights->data() : nullptr, rates.data(), stats,
                    scratch);
  return rates;
}

std::vector<double> max_min_rates_reference(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights, SolveStats* stats) {
  if (paths.empty()) {
    if (stats) *stats = SolveStats{};
    return {};
  }
  validate(capacities, paths, weights);
  return solve_core_reference(capacities, paths, weights, stats);
}

CompactPaths& thread_compact_paths() {
  static thread_local CompactPaths paths;
  return paths;
}

void max_min_rates_compact(const CompactPaths& problem, const double* weights,
                           double* rates_out, SolveStats* stats) {
  const PathsCsr& csr = problem.paths();
  const double* caps = problem.capacities().data();
  const std::size_t nf = csr.num_flows();
  const std::size_t nl = problem.capacities().size();
  if (stats) *stats = SolveStats{};
  if (nf == 0) return;
  validate_flat(caps, nl, weights, nf);
  const int* lids = csr.link_ids.data();
  const int* off = csr.offsets.data();

  // Per-thread scratch, reached below through `c` only: worker lambdas must
  // read the caller's instance, not their own thread's.
  struct ComponentScratch {
    std::vector<int> parent;        // union-find, per compact link
    std::vector<int> comp_of_root;  // per compact link
    std::vector<int> comp_of_flow;
    std::vector<int> comp_off;      // component -> flows, CSR
    std::vector<int> comp_flows;
    SolveScratch solve;
  };
  static thread_local ComponentScratch cs;
  ComponentScratch& c = cs;

  // Link-connectivity union-find; two flows are coupled iff their paths
  // transitively share a link.
  c.parent.resize(nl);
  std::iota(c.parent.begin(), c.parent.end(), 0);
  for (std::size_t f = 0; f < nf; ++f)
    for (int i = off[f] + 1; i < off[f + 1]; ++i)
      dsu_unite(c.parent, lids[off[f]], lids[i]);

  // Dense component ids in first-flow order — deterministic regardless of
  // thread count.
  c.comp_of_root.assign(nl, -1);
  c.comp_of_flow.resize(nf);
  int nc = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    int& comp = c.comp_of_root[static_cast<std::size_t>(
        dsu_find(c.parent, lids[off[f]]))];
    if (comp < 0) comp = nc++;
    c.comp_of_flow[f] = comp;
  }

  if (nc == 1) {
    max_min_rates_csr(caps, nl, csr, weights, rates_out, stats, c.solve);
    return;
  }

  // Each component's flow list, ascending, by counting sort.
  c.comp_off.assign(static_cast<std::size_t>(nc) + 1, 0);
  for (std::size_t f = 0; f < nf; ++f)
    ++c.comp_off[static_cast<std::size_t>(c.comp_of_flow[f]) + 1];
  for (std::size_t k = 1; k < c.comp_off.size(); ++k)
    c.comp_off[k] += c.comp_off[k - 1];
  c.comp_flows.resize(nf);
  for (std::size_t f = 0; f < nf; ++f)
    c.comp_flows[static_cast<std::size_t>(
        c.comp_off[static_cast<std::size_t>(c.comp_of_flow[f])]++)] =
        static_cast<int>(f);
  // The fill advanced every offset to the next component's start.
  for (std::size_t k = c.comp_off.size() - 1; k > 0; --k)
    c.comp_off[k] = c.comp_off[k - 1];
  c.comp_off[0] = 0;

  std::vector<SolveStats> comp_stats(static_cast<std::size_t>(nc));
  sim::parallel_for(static_cast<std::size_t>(nc), 1, [&](std::size_t cb,
                                                        std::size_t ce) {
    // Per-worker pack buffers. The link remap is epoch-stamped, so packing a
    // component costs O(its nnz) with no clearing pass; links are renumbered
    // in first-encounter order (the same order the global solve would visit
    // them, so the per-link arithmetic sequence — and hence every output bit
    // — matches the unsplit solve).
    struct PackScratch {
      std::vector<int> local_id;
      std::vector<std::uint64_t> mark;
      std::uint64_t epoch = 0;
      std::vector<double> sub_caps;
      std::vector<double> sub_w;
      std::vector<double> sub_rates;
      PathsCsr sub_csr;
      SolveScratch solve;
    };
    static thread_local PackScratch ps;
    if (ps.mark.size() < nl) {
      ps.mark.resize(nl, 0);
      ps.local_id.resize(nl, 0);
    }
    for (std::size_t k = cb; k < ce; ++k) {
      const int* flows = c.comp_flows.data() + c.comp_off[k];
      const auto n_flows = static_cast<std::size_t>(c.comp_off[k + 1] - c.comp_off[k]);
      ++ps.epoch;
      ps.sub_caps.clear();
      ps.sub_w.clear();
      ps.sub_csr.clear();
      for (std::size_t i = 0; i < n_flows; ++i) {
        const auto fu = static_cast<std::size_t>(flows[i]);
        for (int j = off[fu]; j < off[fu + 1]; ++j) {
          const auto lu = static_cast<std::size_t>(lids[j]);
          if (ps.mark[lu] != ps.epoch) {
            ps.mark[lu] = ps.epoch;
            ps.local_id[lu] = static_cast<int>(ps.sub_caps.size());
            ps.sub_caps.push_back(caps[lu]);
          }
          ps.sub_csr.push_link(ps.local_id[lu]);
        }
        ps.sub_csr.end_path();
        if (weights) ps.sub_w.push_back(weights[fu]);
      }
      ensure(ps.sub_rates, n_flows);
      max_min_rates_csr(ps.sub_caps.data(), ps.sub_caps.size(), ps.sub_csr,
                        weights ? ps.sub_w.data() : nullptr,
                        ps.sub_rates.data(), &comp_stats[k], ps.solve);
      for (std::size_t i = 0; i < n_flows; ++i)
        rates_out[static_cast<std::size_t>(flows[i])] = ps.sub_rates[i];
    }
  });

  if (stats)
    for (const SolveStats& st : comp_stats) {
      stats->iterations += st.iterations;
      stats->bottleneck_links += st.bottleneck_links;
    }
}

std::vector<double> max_min_rates_components(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights, SolveStats* stats) {
  if (paths.empty()) {
    if (stats) *stats = SolveStats{};
    return {};
  }
  validate(capacities, paths, weights);
  CompactPaths& problem = thread_compact_paths();
  problem.begin(capacities.size());
  for (const auto& p : paths) {
    assert(!p.empty());
    for (int l : p) problem.push_link(l, capacities.data());
    problem.end_path();
  }
  std::vector<double> rate(paths.size(), 0.0);
  max_min_rates_compact(problem, weights ? weights->data() : nullptr,
                        rate.data(), stats);
  return rate;
}

}  // namespace xscale::net
