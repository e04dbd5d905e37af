// checkpoint_io: sustained §4.3 checkpoint traffic in net::FlowSim on a
// sim::Engine. 1,024 compute nodes each keep one write outstanding to an
// Orion OSS endpoint, assigned round-robin as in storage::fabric_campaign;
// each completion starts that client's next write. Write sizes are seeded.
// Warm-up lasts until every client has completed once. One op is
// kCompletionsPerOp consecutive completions. Work = flow completions.
#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "net/fabric.hpp"
#include "net/solver.hpp"
#include "sim/engine.hpp"
#include "storage/orion.hpp"
#include "workloads.hpp"

namespace xbench {
namespace {

using namespace xscale;

constexpr int kClients = 1024;
constexpr std::uint64_t kCompletionsPerOp = 32;
// Ops between two checks of every rate against the reference solver.
constexpr std::int64_t kOracleStride = 8;

class CheckpointIo final : public Workload {
 public:
  explicit CheckpointIo(std::uint64_t seed)
      : seed_(seed), sizes_(kWarmupSeed), replay_rng_(seed ^ 0x5EED) {}

  void setup(SetupTimes& t) override {
    auto snap = build_frontier(t);
    const std::int64_t t0 = now_ns();
    fabric_.emplace(std::move(snap));
    fs_.emplace(eng_, *fabric_);

    // Client NIC -> OSS endpoint, round-robin over the OSS NICs that sit
    // past the compute endpoints (storage::fabric_campaign's layout).
    const auto m = machines::frontier();
    const storage::OrionConfig orion;
    const int first_oss = compute_endpoints(m);
    const int oss_eps =
        std::min(fabric_->topology().num_endpoints() - first_oss,
                 orion.ssus * orion.oss_per_ssu * orion.nics_per_oss);
    for (int c = 0; c < kClients; ++c) {
      src_.push_back(machines::node_endpoint(m, c, c % m.node.nics));
      dst_.push_back(first_oss + c % oss_eps);
    }
    load_.assign(fabric_->snapshot()->num_links(), 0);
    const std::int64_t t1 = now_ns();

    // Warm-up: every client starts at t = 0; run until each has completed
    // once, so the timed ops see steady churn over ~1,000 active flows.
    target_ = std::numeric_limits<std::uint64_t>::max();
    done_once_.assign(kClients, 0);
    for (int c = 0; c < kClients; ++c) launch(c);
    eng_.run();
    if (clients_done_ != kClients)
      throw std::runtime_error("checkpoint_io: warm-up did not complete");
    t.open_ms = ms_between(t0, t1);
    t.warmup_ms = ms_between(t1, now_ns());
    // The 1,024 writes in flight were sized during the warm-up; every write
    // started from here on draws from the run's seed.
    sizes_ = sim::Rng(seed_);

    base_stats_ = fs_->stats();
    base_completions_ = completions_;
    base_scheduled_ = eng_.events_scheduled();
    base_cancelled_ = cancelled();
  }

  double run(std::int64_t) override {
    const std::uint64_t before = completions_;
    target_ = completions_ + kCompletionsPerOp;
    pairs_.clear();
    last_ns_ = now_ns();
    t_before_ = eng_.now();
    eng_.run();
    return static_cast<double>(completions_ - before);
  }

  // Fabric::route_into over the op's own (src, dst) pairs, each call a span.
  void replay(std::int64_t) override {
    Scope s(spans, "replay");
    for (const auto& [src, dst] : pairs_) {
      const std::int64_t t0 = now_ns();
      fabric_->route_into(src, dst, replay_rng_, &load_, path_);
      spans.add("net.route.route_into", t0, now_ns());
      for (int l : path_) ++load_[static_cast<std::size_t>(l)];
      routed_.insert(routed_.end(), path_.begin(), path_.end());
    }
    for (int l : routed_) --load_[static_cast<std::size_t>(l)];
    routed_.clear();
  }

  std::string check(std::int64_t op) override {
    if (pairs_.size() < kCompletionsPerOp)
      return "op completed " + std::to_string(pairs_.size()) + " writes";
    if (fs_->active_flows() != kClients || fs_->stalled_flows() != 0)
      return "active set is not the 1,024 clients";
    if (!(eng_.now() > t_before_)) return "simulated time did not advance";
    digest.add(eng_.now());
    if (op % kOracleStride != 0) return {};

    // warm == cold == oracle: every live rate equals the reference solver's
    // over the same paths and the fabric's effective capacities.
    std::vector<std::vector<int>> paths;
    std::vector<double> rates;
    fs_->for_each_flow([&](std::uint64_t, const std::vector<int>& p, double,
                           double rate) {
      paths.push_back(p);
      rates.push_back(rate);
    });
    const auto ref =
        net::max_min_rates_reference(fabric_->effective_capacities(), paths);
    for (std::size_t f = 0; f < rates.size(); ++f) {
      if (!same_bits(rates[f], ref[f]))
        return "flow " + std::to_string(f) + " rate differs from the reference";
      digest.add(rates[f]);
    }
    return {};
  }

  void counts(const RouteCacheCounts& timed, Counts& out) const override {
    net::FlowSim::Stats d = fs_->stats();
    accumulate(d, base_stats_, -1);
    flowsim_counts(d, out);
    route_cache_counts(timed, out);
    const auto done = static_cast<double>(completions_ - base_completions_);
    out["net.flowsim.resolves_per_completion"] =
        ratio(static_cast<double>(d.resolves), done);
    out["sim.engine.scheduled_per_completion"] = ratio(
        static_cast<double>(eng_.events_scheduled() - base_scheduled_), done);
    out["sim.engine.cancelled_per_completion"] =
        ratio(static_cast<double>(cancelled() - base_cancelled_), done);
  }

 private:
  // Every scheduled event was executed, cancelled, or is still pending.
  std::uint64_t cancelled() const {
    return eng_.events_scheduled() - eng_.events_executed() -
           eng_.pending_events();
  }

  void launch(int c) {
    const double mib = static_cast<double>(64 + sizes_.index(961));  // .. 1 GiB
    const double bytes = mib * (1 << 20);
    const std::int64_t t0 = now_ns();
    const auto cu = static_cast<std::size_t>(c);
    fs_->start(src_[cu], dst_[cu], bytes, [this, c] { on_done(c); });
    spans.add("net.flowsim.start", t0, now_ns());
  }

  void on_done(int c) {
    // Engine time since the previous completion callback: completion scan,
    // resolve and reschedule.
    spans.add("net.flowsim.event", last_ns_, now_ns());
    ++completions_;
    if (!done_once_[static_cast<std::size_t>(c)]) {
      done_once_[static_cast<std::size_t>(c)] = 1;
      if (++clients_done_ == kClients) eng_.stop();
    }
    if (completions_ >= target_) eng_.stop();
    pairs_.emplace_back(src_[static_cast<std::size_t>(c)],
                        dst_[static_cast<std::size_t>(c)]);
    digest.add(static_cast<std::uint64_t>(c));
    launch(c);
    last_ns_ = now_ns();
  }

  std::uint64_t seed_;
  sim::Rng sizes_;  // write sizes: the warm-up's, then the run's
  sim::Rng replay_rng_;
  sim::Engine eng_;
  std::optional<net::Fabric> fabric_;
  std::optional<net::FlowSim> fs_;  // references eng_ and *fabric_
  std::vector<int> src_, dst_;

  std::uint64_t completions_ = 0;
  std::uint64_t target_ = 0;
  std::vector<char> done_once_;
  int clients_done_ = 0;
  double t_before_ = 0;
  std::int64_t last_ns_ = 0;
  std::vector<std::pair<int, int>> pairs_;  // writes started this op

  std::vector<int> load_;  // replay: adaptive-routing load, zero between ops
  std::vector<int> path_;
  std::vector<int> routed_;

  net::FlowSim::Stats base_stats_;
  std::uint64_t base_completions_ = 0;
  std::uint64_t base_scheduled_ = 0;
  std::uint64_t base_cancelled_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_checkpoint_io(std::uint64_t seed) {
  return std::make_unique<CheckpointIo>(seed);
}

}  // namespace xbench
