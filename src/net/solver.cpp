#include "net/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "net/simd.hpp"
#include "sim/parallel.hpp"

namespace xscale::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMinNormal = std::numeric_limits<double>::min();

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

// Grow-only sizing to at least n elements; reports whether the buffer had
// to allocate, so the scratch-reuse probe can count allocation-free
// steady-state re-solves. It never shrinks, so a smaller problem does not
// re-zero the buffer on the next larger one: callers use the first n.
template <typename T>
bool ensure(std::vector<T>& v, std::size_t n) {
  const bool grew = v.capacity() < n;
  if (v.size() < n) v.resize(n);
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
    const std::vector<double>* weights, SolveStats* stats,
    std::vector<int>* levels_out) {
  const std::size_t nf = paths.size();
  std::vector<double> rate(nf, 0.0);

  // Per-link: residual capacity, total unfrozen weight, flows crossing it.
  std::vector<double> residual = capacities;
  std::vector<double> active_w(capacities.size(), 0.0);
  std::vector<std::vector<int>> flows_on(capacities.size());
  std::vector<char> frozen(nf, 0);

  auto w_of = [&](std::size_t f) { return weights ? (*weights)[f] : 1.0; };

  if (levels_out) levels_out->assign(nf, 0);
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
        if (levels_out) (*levels_out)[fu] = static_cast<int>(iterations);
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

// Minimum of n doubles, +inf when n == 0. Four accumulator chains, like
// the share-fill kernels (min over doubles is order-independent).
double min_of(const double* v, std::size_t n) {
  double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::min(m0, v[i]);
    m1 = std::min(m1, v[i + 1]);
    m2 = std::min(m2, v[i + 2]);
    m3 = std::min(m3, v[i + 3]);
  }
  for (; i < n; ++i) m0 = std::min(m0, v[i]);
  return std::min(std::min(m0, m1), std::min(m2, m3));
}

// A kShareBlock-ary tree of minima over the cached shares (DESIGN.md §9).
// Level 0 is the shares themselves, share_of(resid[p], aw[p]) at position
// p; entry i of level L + 1 is the minimum of entries [i * kShareBlock,
// (i + 1) * kShareBlock) of level L, and the top level (at least level 1)
// holds one entry, the minimum share. The share-fill kernel computes level
// 0 and level 1 together, for all positions or for one block. Caller-owned
// buffers: levels 1 and up live in `store`, of at least `capacity(n)`
// doubles; `stale`, as many ints, flags the entries to recompute (all 0
// outside an update), and `list`, of `list_capacity(n)` ints, lists them.
class ShareTree {
 public:
  static std::size_t capacity(std::size_t n) {
    return n / (kShareBlock - 1) + kMaxLevels;
  }
  static std::size_t list_capacity(std::size_t n) { return n / kShareBlock + 2; }

  // Lay the tree out over the `n` positions of `resid` / `aw` and fill it.
  void fill(const double* resid, const double* aw, std::size_t n,
            double* share, double* store, int* stale, int* list) {
    resid_ = resid;
    aw_ = aw;
    kernel_ = share_fill();
    stale_ = stale;
    list_ = list;
    level_[0] = share;
    size_[0] = n;
    top_ = 0;
    do {
      level_[top_ + 1] = top_ == 0 ? store : level_[top_] + size_[top_];
      size_[top_ + 1] = (size_[top_] + kShareBlock - 1) / kShareBlock;
      ++top_;
    } while (size_[top_] > 1);
    kernel_(resid, aw, n, share, store);
    for (int L = 2; L <= top_; ++L)
      for (std::size_t i = 0; i < size_[L]; ++i) level_[L][i] = group_min(L - 1, i);
  }

  // +inf over no positions: every link of the remaining flows is dead.
  double min() const { return size_[0] > 0 ? level_[top_][0] : kInf; }

  // Position p's share changed: its block is recomputed by `repair`.
  // Branch-free: the list takes the block and keeps it if it is new.
  void touch(std::size_t p) {
    const std::size_t b = p / kShareBlock;
    list_[n_stale_] = static_cast<int>(b);
    n_stale_ += !stale_[b];
    stale_[b] = 1;
  }

  // Forget the touches (the caller re-fills the tree instead).
  void discard() {
    for (std::size_t j = 0; j < n_stale_; ++j) stale_[list_[j]] = 0;
    n_stale_ = 0;
  }

  // Recompute the stale entries, level by level, each once: a touched
  // block by the kernel, shares and minimum, and the levels above from
  // their groups. An entry that comes out unchanged leaves its parent as
  // it was; a changed one makes its parent stale. A level's list overwrites
  // the one below it in place: each entry read adds at most one.
  void repair() {
    int* stale = stale_;
    for (int L = 1; L <= top_; ++L) {
      int* const up = stale + size_[L];
      std::size_t k = 0;
      for (std::size_t j = 0; j < n_stale_; ++j) {
        const auto i = static_cast<std::size_t>(list_[j]);
        stale[i] = 0;
        const double old = level_[L][i];
        if (L == 1) {
          const std::size_t b = i * kShareBlock;
          kernel_(resid_ + b, aw_ + b, std::min(size_[0], b + kShareBlock) - b,
                  level_[0] + b, level_[1] + i);
        } else {
          level_[L][i] = group_min(L - 1, i);
        }
        if (level_[L][i] == old || L == top_) continue;
        const std::size_t u = i / kShareBlock;
        list_[k] = static_cast<int>(u);
        k += !up[u];
        up[u] = 1;
      }
      n_stale_ = k;
      stale = up;
    }
  }

  // Writes the positions whose share equals `m`, the minimum, in position
  // order to the front of `out` and returns their count: a depth-first walk
  // into the groups whose minimum is m. `out` only grows, to the most
  // candidates a level had plus one block.
  std::size_t collect_minimum(double m, std::vector<int>& out) const {
    if (min() != m) return 0;
    return collect(top_, 0, m, out, 0);
  }

 private:
  static constexpr int kMaxLevels = 16;

  double group_min(int L, std::size_t i) const {
    const std::size_t b = i * kShareBlock;
    return min_of(level_[L] + b, std::min(size_[L], b + kShareBlock) - b);
  }

  // Entry i of level L >= 1 equals m; `k` positions are written so far.
  std::size_t collect(int L, std::size_t i, double m, std::vector<int>& out,
                      std::size_t k) const {
    const double* v = level_[L - 1];
    const std::size_t b = i * kShareBlock;
    const std::size_t e = std::min(size_[L - 1], b + kShareBlock);
    if (L > 1) {
      for (std::size_t j = b; j < e; ++j)
        if (v[j] == m) k = collect(L - 1, j, m, out, k);
      return k;
    }
    // A block of shares, written branch-free: which shares tie the minimum
    // is as good as random to a predictor.
    if (out.size() < k + kShareBlock) out.resize(2 * (k + kShareBlock));
    int* const o = out.data();
    for (std::size_t j = b; j < e; ++j) {
      o[k] = static_cast<int>(j);
      k += v[j] == m;
    }
    return k;
  }

  const double* resid_ = nullptr;
  const double* aw_ = nullptr;
  ShareFillFn kernel_ = nullptr;
  double* level_[kMaxLevels] = {};
  std::size_t size_[kMaxLevels] = {};
  int top_ = 0;
  int* stale_ = nullptr;
  int* list_ = nullptr;
  std::size_t n_stale_ = 0;
};

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

void max_min_rates_csr(const CompactPaths& problem, const double* weights,
                       double* rates_out, SolveStats* stats,
                       SolveScratch& s, const FreezePrefix* prefix,
                       int* levels_out) {
  const PathsCsr& paths = problem.paths();
  const double* capacities = problem.capacities().data();
  const std::size_t num_links = problem.capacities().size();
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
  grew |= ensure(s.level_flows, nf);
  grew |= ensure(s.t_flow, nnz);
  grew |= ensure(s.share, num_links);
  grew |= ensure(s.block_min, ShareTree::capacity(num_links));
  grew |= ensure(s.block_stale, ShareTree::capacity(num_links));
  grew |= ensure(s.stale_blocks, ShareTree::list_capacity(num_links));
  grew |= ensure(s.queued, num_links);
  grew |= s.active_links.capacity() < num_links;
  s.active_links.resize(num_links);
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

  // Raw views, taken once the buffers are sized (later resizes only shrink
  // and keep the storage). Locals, so that the char stores below (queued
  // bytes, frozen flags) cannot make the compiler reload them.
  double* const resid = s.residual.data();
  double* const act_w = s.active_w.data();
  int* const link_pos = s.link_pos.data();
  int* const active = s.active_links.data();
  char* const frozen = s.frozen.data();
  int* const t_off = s.t_off.data();
  int* const t_flow = s.t_flow.data();

  std::fill(frozen, frozen + nf, 0);
  std::fill(rates_out, rates_out + nf, 0.0);

  // Transposed link->flow incidence by counting sort. Flows land in
  // ascending flow order within each link — the same order the reference
  // builds its per-link flow lists, so the freeze sweep visits flows
  // identically and every output bit matches.
  // t_off[l] starts at the end of link l's list and is decremented once per
  // crosser, last flow first, so it ends at the list's start.
  std::fill(t_off, t_off + num_links, 0);
  for (std::size_t i = 0; i < nnz; ++i) ++t_off[static_cast<std::size_t>(lids[i])];
  for (std::size_t l = 1; l < num_links; ++l) t_off[l] += t_off[l - 1];
  t_off[num_links] = static_cast<int>(nnz);
  for (std::size_t f = nf; f-- > 0;) {
    assert(off[f] < off[f + 1]);
    for (int i = off[f]; i < off[f + 1]; ++i)
      t_flow[static_cast<std::size_t>(--t_off[lids[i]])] = static_cast<int>(f);
  }

  // Dense SoA: compact ids are dense, first-seen and all crossed, so link
  // l starts at position l with its capacity as residual. Its active weight
  // is its crosser count, or with weights their sum in ascending flow
  // order, the order the reference adds them in.
  std::copy(capacities, capacities + num_links, resid);
  std::iota(link_pos, link_pos + num_links, 0);
  std::iota(active, active + num_links, 0);
  auto w_of = [&](std::size_t f) { return weights ? weights[f] : 1.0; };
  for (std::size_t l = 0; l < num_links; ++l) {
    double w = 0.0;
    if (!weights)
      w = static_cast<double>(t_off[l + 1] - t_off[l]);
    else
      for (int ti = t_off[l]; ti < t_off[l + 1]; ++ti)
        w += weights[t_flow[static_cast<std::size_t>(ti)]];
    act_w[l] = w;
  }

  // Tandem compaction: drop links with no remaining unfrozen flows,
  // keeping positions dense and first-seen-ordered (what std::erase_if
  // does for the reference's id-indexed layout).
  auto compact = [&] {
    std::size_t w = 0;
    for (std::size_t pi = 0; pi < s.active_links.size(); ++pi) {
      const int l = active[pi];
      if (act_w[pi] <= 1e-12) {
        link_pos[static_cast<std::size_t>(l)] = -1;
        continue;
      }
      active[w] = l;
      resid[w] = resid[pi];
      act_w[w] = act_w[pi];
      link_pos[static_cast<std::size_t>(l)] = static_cast<int>(w);
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
        for (int ti = t_off[lu]; ti < t_off[lu + 1]; ++ti)
          ++cnt[prefix->level[static_cast<std::size_t>(
              t_flow[static_cast<std::size_t>(ti)])]];
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
            link_pos[static_cast<std::size_t>(lids[i])]);
        double r = resid[p];
        const double aw = act_w[p];
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
        frozen[fu] = 1;
        rates_out[fu] = prefix->rate[fu];
        if (levels_out) levels_out[fu] = k;
        // No compaction runs during the replay, so every position is live.
        for (int pi = off[fu]; pi < off[fu + 1]; ++pi) {
          const auto p = static_cast<std::size_t>(
              link_pos[static_cast<std::size_t>(lids[pi])]);
          resid[p] -= rates_out[fu];
          act_w[p] -= 1.0;
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

  // Cached shares (DESIGN.md §9). Between levels, share[p] holds
  // share_of(residual[p], active_w[p]) for every live position and +inf for
  // a dead one, under a tree of their minima. A level fires links in
  // position order, each tested against the current state exactly as a
  // sweep over every position would test it; but a link no firing has
  // touched this level still has its cached share, so it can pass the test
  // only if that share is the level's minimum. The sweep therefore visits
  // just those candidates plus the links a firing touched past the cursor
  // that now test <= the cutoff, and the level's upkeep re-fills only the
  // blocks of touched positions. A dead link (active weight <= 1e-12 at the end of a
  // level) takes no further subtractions; its position is reclaimed once
  // dead positions outnumber live ones.
  double* const share = s.share.data();
  // Candidate or re-queued. All 0 between solves (each sweep clears every
  // byte it sets, and growth zero-fills), so a solve does not clear it.
  unsigned char* const queued = s.queued.data();
  int* const level_flows = s.level_flows.data();
  std::size_t n_level_flows = 0;
  std::size_t n_dead = 0;
  std::vector<int>& cand = s.candidates;
  std::vector<int>& requeue = s.requeue;
  const auto by_position = std::greater<int>{};  // min-heap
  ShareTree tree;
  // Cache every position's share and rebuild the tree over them.
  auto refill = [&] {
    tree.fill(resid, act_w, s.active_links.size(), share, s.block_min.data(),
              s.block_stale.data(), s.stale_blocks.data());
  };
  if (remaining > 0) refill();
  // Only weights can leave a position with weight <= 1e-12 before any level
  // ran (unit weights count crossers exactly); the first upkeep finds it.
  bool check_all_dead = weights != nullptr;

  while (remaining > 0) {
    ++iterations;
    const double min_share = tree.min();
    if (!std::isfinite(min_share))
      throw std::runtime_error(
          "max_min_rates: no finite bottleneck share for remaining flows");
    // Exact-tie firing — see solve_core_reference on why the cutoff carries
    // no relative slack (component decomposability of the bits). Shares
    // stay as cached until the upkeep, so the candidates are fixed for the
    // whole sweep.
    const double cutoff = min_share;
    // A share above the cutoff by more than this factor (tested by a
    // multiply, not the divide) is above it after rounding too; see below.
    const double above = cutoff >= kMinNormal ? cutoff * (1.0 + 0x1p-40) : kInf;
    const std::size_t cand_capacity = cand.capacity();
    const std::size_t n_cand = tree.collect_minimum(cutoff, cand);
    if (cand.capacity() != cand_capacity) s.last_solve_allocated = true;
    for (std::size_t c = 0; c < n_cand; ++c) queued[static_cast<std::size_t>(cand[c])] = 1;
    std::size_t ci = 0;
    while (true) {
      std::size_t p;
      if (!requeue.empty() && (ci == n_cand || requeue.front() < cand[ci])) {
        std::pop_heap(requeue.begin(), requeue.end(), by_position);
        p = static_cast<std::size_t>(requeue.back());
        requeue.pop_back();
      } else if (ci < n_cand) {
        p = static_cast<std::size_t>(cand[ci++]);
      } else {
        break;
      }
      queued[p] = 0;
      const double aw = act_w[p];
      if (aw <= 0.0) continue;
      if (std::max(0.0, resid[p]) / aw > cutoff) continue;
      const auto lu = static_cast<std::size_t>(active[p]);
      ++bottlenecks;
      for (int ti = t_off[lu]; ti < t_off[lu + 1]; ++ti) {
        const auto fu = static_cast<std::size_t>(t_flow[static_cast<std::size_t>(ti)]);
        if (frozen[fu]) continue;
        frozen[fu] = 1;
        const double w = w_of(fu);
        const double rate = min_share * w;
        rates_out[fu] = rate;
        if (levels_out) levels_out[fu] = static_cast<int>(iterations);
        --remaining;
        level_flows[n_level_flows++] = static_cast<int>(fu);
        for (int pi = off[fu]; pi < off[fu + 1]; ++pi) {
          // Dead links take no further subtractions; their weight 0 keeps
          // their share +inf (DESIGN.md §9).
          const int q = link_pos[static_cast<std::size_t>(lids[pi])];
          if (q < 0) continue;
          const auto qu = static_cast<std::size_t>(q);
          const double r = resid[qu] - rate;
          const double a = act_w[qu] - w;
          resid[qu] = r;
          act_w[qu] = a;
          // A link past the cursor that is not queued yet joins the sweep
          // once it tests <= the cutoff, and is tested again at its turn.
          // Two compares, which almost every touch fails, come first: a
          // link with no active weight left has share +inf, and r > t =
          // above * a (rounded) puts the exact quotient above cutoff *
          // (1 + 2^-41), so the rounded one lies above the cutoff. (For a
          // normal t the rounding costs a factor 1 - 2^-53 of the margin;
          // below the normal range, doubles are multiples of 2^-1074, so
          // r > t means r >= t + 2^-1074, above the exact product.) A cutoff
          // below the normal range makes `above` +inf, and the test exact.
          if ((r <= above * a) & (a > 0.0) && (qu > p) & !queued[qu] &&
              share_of(r, a) <= cutoff) {
            queued[qu] = 1;
            if (requeue.size() == requeue.capacity()) s.last_solve_allocated = true;
            requeue.push_back(q);
            std::push_heap(requeue.begin(), requeue.end(), by_position);
          }
        }
      }
    }
    if (remaining == 0) break;

    // Upkeep: the positions on the paths of the flows this level froze
    // (the touched ones) are the only ones whose shares moved. A touched
    // link whose active weight is now <= 1e-12 dies: its `link_pos` becomes
    // -1, so later firings subtract nothing from it, and its weight 0, so
    // its share is +inf. Branch-free: which touched links die is as good as
    // random to a predictor. Then the tree re-fills the touched blocks.
    const std::size_t n = s.active_links.size();
    for (std::size_t i = 0; i < n_level_flows; ++i) {
      const auto fu = static_cast<std::size_t>(level_flows[i]);
      for (int pi = off[fu]; pi < off[fu + 1]; ++pi) {
        const int q = link_pos[static_cast<std::size_t>(lids[pi])];
        if (q < 0) continue;
        const auto qu = static_cast<std::size_t>(q);
        const bool dead = act_w[qu] <= 1e-12;
        link_pos[static_cast<std::size_t>(lids[pi])] = dead ? -1 : q;
        act_w[qu] = dead ? 0.0 : act_w[qu];
        n_dead += dead;
        tree.touch(qu);
      }
    }
    // Positions nothing touched that were dead before the first level.
    if (check_all_dead)
      for (std::size_t p = 0; p < n; ++p)
        if (act_w[p] <= 1e-12 && link_pos[static_cast<std::size_t>(active[p])] >= 0) {
          link_pos[static_cast<std::size_t>(active[p])] = -1;
          act_w[p] = 0.0;
          ++n_dead;
          tree.touch(p);
        }
    check_all_dead = false;
    n_level_flows = 0;
    if (n_dead > n - n_dead) {
      tree.discard();
      compact();
      n_dead = 0;
      refill();
    } else {
      tree.repair();
    }
  }

  if (stats) {
    stats->iterations = iterations;
    stats->bottleneck_links = bottlenecks;
    stats->replayed_flows = replayed;
  }
}

std::vector<double> max_min_rates_reference(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights, SolveStats* stats,
    std::vector<int>* levels_out) {
  if (paths.empty()) {
    if (stats) *stats = SolveStats{};
    if (levels_out) levels_out->clear();
    return {};
  }
  validate(capacities, paths, weights);
  return solve_core_reference(capacities, paths, weights, stats, levels_out);
}

CompactPaths& thread_compact_paths() {
  static thread_local CompactPaths paths;
  return paths;
}

namespace {

// The solve scratch of this thread for the adapters, used by
// `max_min_rates`, by the one-component path of `max_min_rates_compact` and
// by its per-component workers alike: with one thread the workers run on
// the caller, which then holds one scratch, not two of the largest
// problem's size.
SolveScratch& thread_solve_scratch() {
  static thread_local SolveScratch s;
  return s;
}

// Validates every capacity and weight of a vector-of-paths problem, then
// packs it into `thread_compact_paths()`.
const CompactPaths& pack(const std::vector<double>& capacities,
                         const std::vector<std::vector<int>>& paths,
                         const std::vector<double>* weights) {
  validate(capacities, paths, weights);
  CompactPaths& problem = thread_compact_paths();
  problem.assign(capacities, paths);
  return problem;
}

}  // namespace

std::vector<double> max_min_rates(const std::vector<double>& capacities,
                                  const std::vector<std::vector<int>>& paths,
                                  const std::vector<double>* weights,
                                  SolveStats* stats) {
  if (paths.empty()) {
    if (stats) *stats = SolveStats{};
    return {};
  }
  const CompactPaths& problem = pack(capacities, paths, weights);
  std::vector<double> rates(paths.size(), 0.0);
  max_min_rates_csr(problem, weights ? weights->data() : nullptr, rates.data(),
                    stats, thread_solve_scratch());
  return rates;
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
    max_min_rates_csr(problem, weights, rates_out, stats,
                      thread_solve_scratch());
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
    // Per-worker pack buffers, apart from `thread_compact_paths()`, which
    // may hold `problem` itself. A component's links are renumbered in
    // first-seen order (the order the unsplit solve visits them in, so the
    // per-link arithmetic — and hence every output bit — matches it).
    struct PackScratch {
      CompactPaths sub;
      std::vector<double> sub_w;
      std::vector<double> sub_rates;
    };
    static thread_local PackScratch ps;
    for (std::size_t k = cb; k < ce; ++k) {
      const int* flows = c.comp_flows.data() + c.comp_off[k];
      const auto n_flows = static_cast<std::size_t>(c.comp_off[k + 1] - c.comp_off[k]);
      ps.sub.begin(nl);
      ps.sub_w.clear();
      for (std::size_t i = 0; i < n_flows; ++i) {
        const auto fu = static_cast<std::size_t>(flows[i]);
        for (int j = off[fu]; j < off[fu + 1]; ++j)
          ps.sub.push_link(lids[j], caps);
        ps.sub.end_path();
        if (weights) ps.sub_w.push_back(weights[fu]);
      }
      ensure(ps.sub_rates, n_flows);
      max_min_rates_csr(ps.sub, weights ? ps.sub_w.data() : nullptr,
                        ps.sub_rates.data(), &comp_stats[k],
                        thread_solve_scratch());
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
  std::vector<double> rate(paths.size(), 0.0);
  max_min_rates_compact(pack(capacities, paths, weights),
                        weights ? weights->data() : nullptr, rate.data(),
                        stats);
  return rate;
}

}  // namespace xscale::net
