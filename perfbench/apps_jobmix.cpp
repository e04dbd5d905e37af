// apps_jobmix: the paper-reproduction path. One op is one
// apps::run_app(spec, frontier, &fabric, nodes) call: SimComm ->
// Fabric::steady_rates -> adaptive routing of every pair ->
// max_min_rates_components. Specs cycle through apps::all_apps() in seeded
// order; job sizes are log-uniform over 64-1,024 nodes, stratified in rounds
// of eight so every seed runs the same size mix in a different order.
// sched::Scheduler places each job. The jobs of a round stay allocated until
// the round ends, so placement depends on the round so far. Every round
// starts on an empty machine and a freshly built fabric, whose route cache
// is cold, so op cost does not drift with run length. Work = app runs.
#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "apps/app.hpp"
#include "apps/catalog.hpp"
#include "mpi/comm.hpp"
#include "net/fabric.hpp"
#include "net/patterns.hpp"
#include "net/solver.hpp"
#include "sched/slurm.hpp"
#include "workloads.hpp"

namespace xbench {
namespace {

using namespace xscale;

constexpr int kRound = 8;           // size strata per round
constexpr int kMinNodes = 64;
constexpr double kSizeSpan = 16.0;  // 64 .. 1,024 nodes
// Position inside the strata advances by the golden ratio each round, so
// any run's sizes cover the range evenly whatever its length.
constexpr double kGolden = 0.6180339887498949;
constexpr int kWarmupOps = kRound;
// Ops between two checks of the solver against the reference.
constexpr std::int64_t kOracleStride = 8;

bool finite_positive(double x) { return std::isfinite(x) && x > 0; }

class AppsJobmix final : public Workload {
 public:
  explicit AppsJobmix(std::uint64_t seed)
      : seed_(seed),
        rng_(kWarmupSeed),
        machine_(machines::frontier()),
        apps_(apps::all_apps()) {}

  void setup(SetupTimes& t) override {
    auto snap = build_frontier(t);
    const std::int64_t t0 = now_ns();
    fabric_.emplace(std::move(snap));
    sched_.emplace(machine_.compute_nodes, 128, rng_.index(1u << 30));
    const std::int64_t t1 = now_ns();
    // Warm-up: one round at the strata midpoints, with specs drawn from the
    // warm-up seed, so its cost (and setup_s) does not depend on the seed.
    offset_ = 0.5 - kGolden + 1.0;
    for (int w = 1; w <= kWarmupOps; ++w) {
      prepare(-w);
      run(-w);
      const std::string err = check(-w);
      if (!err.empty()) throw std::runtime_error("apps_jobmix warm-up: " + err);
    }
    rng_ = sim::Rng(seed_);
    specs_.clear();
    offset_ = rng_.uniform();
    t.open_ms = ms_between(t0, t1);
    t.warmup_ms = ms_between(t1, now_ns());
  }

  void prepare(std::int64_t) override {
    if (strata_.empty()) {
      if (!round_.empty()) {
        for (const sched::Allocation& job : round_) sched_->release(job);
        round_.clear();
        fabric_.reset();  // free the old route cache before the new one
        SetupTimes unused;
        fabric_.emplace(build_frontier(unused));
      }
      for (int k = 0; k < kRound; ++k) strata_.push_back(k);
      std::shuffle(strata_.begin(), strata_.end(), rng_.raw());
      offset_ = std::fmod(offset_ + kGolden, 1.0);
    }
    const double u = (strata_.back() + offset_) / kRound;
    strata_.pop_back();
    const int nodes =
        static_cast<int>(std::lround(kMinNodes * std::pow(kSizeSpan, u)));
    if (specs_.empty()) {
      for (std::size_t k = 0; k < apps_.size(); ++k) specs_.push_back(k);
      std::shuffle(specs_.begin(), specs_.end(), rng_.raw());
    }
    spec_ = specs_.back();
    specs_.pop_back();

    const std::int64_t t0 = now_ns();
    auto alloc = sched_->allocate(nodes);
    spans.add("sched.allocate", t0, now_ns());
    if (!alloc) throw std::runtime_error("apps_jobmix: allocation failed");
    round_.push_back(std::move(*alloc));
  }

  double run(std::int64_t) override {
    Scope s(spans, "apps.run_app");
    run_ = apps::run_app(apps_[spec_], machine_, &*fabric_, nodes());
    return 1;
  }

  // The layer calls run_app makes, each timed on its own: SimComm's two
  // cached estimates, then one of its permutation samples split into
  // steady_rates, the routing it does and the solve it does.
  void replay(std::int64_t) override {
    Scope s(spans, "replay");
    mpi::CommConfig ccfg;
    ccfg.ppn = std::max(1, machine_.node.gpus);
    mpi::SimComm comm(machine_, &*fabric_, nodes(), ccfg);
    {
      Scope b(spans, "mpi.sustained_per_rank_bw");
      comm.sustained_per_rank_bw();
    }
    {
      Scope l(spans, "mpi.avg_latency");
      comm.avg_latency();
    }
    const net::PairList pairs = sample_pairs(comm, ccfg);
    std::vector<std::vector<int>> paths;
    {
      Scope r(spans, "net.steady_rates");
      fabric_->steady_rates(pairs, nullptr, &paths);
    }
    {
      Scope c(spans, "net.solver.components");
      net::SolveStats ss;
      net::max_min_rates_components(fabric_->effective_capacities(), paths,
                                    nullptr, &ss);
      solves_ += 1;
      solve_iters_ += ss.iterations;
    }
    {
      Scope a(spans, "net.route.adaptive");
      sim::Rng rng(fabric_->config().seed);
      std::vector<int> load(fabric_->snapshot()->num_links(), 0);
      std::vector<int> path;
      for (const auto& [src, dst] : pairs) {
        fabric_->route_into(src, dst, rng, &load, path);
        for (int l : path) ++load[static_cast<std::size_t>(l)];
      }
      a.items(static_cast<std::int64_t>(pairs.size()));
    }
  }

  std::string check(std::int64_t op) override {
    if (!finite_positive(run_.fom) || !finite_positive(run_.step_time))
      return run_.app + ": FOM " + std::to_string(run_.fom) + ", step time " +
             std::to_string(run_.step_time);
    digest.add(run_.fom);
    digest.add(run_.step_time);
    if (op % kOracleStride != 0) return {};

    // The solver steady_rates uses equals the reference on the paths it
    // routed, bitwise.
    mpi::CommConfig ccfg;
    ccfg.ppn = std::max(1, machine_.node.gpus);
    const mpi::SimComm comm(machine_, &*fabric_, nodes(), ccfg);
    std::vector<std::vector<int>> paths;
    const auto rates =
        fabric_->steady_rates(sample_pairs(comm, ccfg), nullptr, &paths);
    const auto& cap = fabric_->effective_capacities();
    const auto comp = net::max_min_rates_components(cap, paths);
    const auto ref = net::max_min_rates_reference(cap, paths);
    for (std::size_t f = 0; f < ref.size(); ++f) {
      if (!same_bits(comp[f], ref[f]) || !same_bits(rates[f], ref[f]))
        return "flow " + std::to_string(f) + " rate differs from the reference";
      digest.add(ref[f]);
    }
    return {};
  }

  void counts(const RouteCacheCounts& timed, Counts& out) const override {
    route_cache_counts(timed, out);
    out["net.solver.iters_per_solve"] =
        ratio(static_cast<double>(solve_iters_), static_cast<double>(solves_));
  }

 private:
  const std::vector<int>& nodes() const { return round_.back().nodes; }

  // SimComm's first bandwidth sample: a rank permutation, on-node pairs
  // dropped, mapped to NIC endpoints.
  net::PairList sample_pairs(const mpi::SimComm& comm,
                             const mpi::CommConfig& ccfg) const {
    sim::Rng rng(ccfg.seed);
    net::PairList pairs;
    for (const auto& [r, peer] : net::random_permutation(comm.size(), rng))
      if (comm.node_of_rank(r) != comm.node_of_rank(peer))
        pairs.emplace_back(comm.endpoint_of_rank(r),
                           comm.endpoint_of_rank(peer));
    return pairs;
  }

  std::uint64_t seed_;
  sim::Rng rng_;  // the warm-up's inputs, then the run's
  machines::Machine machine_;
  std::vector<apps::AppSpec> apps_;
  std::optional<net::Fabric> fabric_;
  std::optional<sched::Scheduler> sched_;
  std::vector<int> strata_;  // size strata left in this round
  double offset_ = 0;        // position inside the strata this round
  std::vector<std::size_t> specs_;  // apps left in this pass over all_apps()
  std::vector<sched::Allocation> round_;  // jobs placed this round
  std::size_t spec_ = 0;
  apps::AppRun run_;

  std::uint64_t solves_ = 0;
  std::int64_t solve_iters_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_apps_jobmix(std::uint64_t seed) {
  return std::make_unique<AppsJobmix>(seed);
}

}  // namespace xbench
