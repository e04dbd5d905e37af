// serve_whatif: capacity-planning what-if scenarios through the serve_cli
// line protocol, driven in-process over one shared Frontier snapshot.
//
// One op stages one scenario on each of 16 open sessions (FAIL, FLOW...,
// SUBMIT lines into serve::Frontend::handle_line) and RUNs the batch. A
// scenario fails 1-2 global bundles toward an incast target's group and adds
// 32-128 flows: half onto the target (a quarter of those from the failed
// groups, so they reroute), half random pairs; most start at time 0. About a
// quarter of scenarios repeat one of the session's last eight.
// Work = scenarios answered.
#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "serve/batcher.hpp"
#include "serve/frontend.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace xbench {
namespace {

using namespace xscale;

constexpr int kSessions = 16;
constexpr int kWarmupOps = 4;
constexpr double kRepeatFrac = 0.25;
constexpr std::size_t kHistory = 8;
constexpr int kEndpointsPerGroup = 512;  // 32 switches x 16 endpoints

struct Staged {
  serve::Scenario sc;
  std::vector<std::string> lines;
};

// What the shared session answered for one scenario of the session whose
// stream is replayed on a private fabric.
struct Observed {
  serve::Scenario sc;
  double makespan;
  std::uint64_t dropped;
  std::uint64_t epoch;
  net::FlowSim::Stats stats;  // cumulative, after the scenario
};

const char* stats_mismatch(const net::FlowSim::Stats& a,
                           const net::FlowSim::Stats& b) {
#define XB_FIELD(f) \
  if (a.f != b.f) return #f;
  XB_FIELD(resolves)
  XB_FIELD(warm_solves)
  XB_FIELD(warm_single_hits)
  XB_FIELD(warm_memo_hits)
  XB_FIELD(warm_memo_stale)
  XB_FIELD(warm_prefix_hits)
  XB_FIELD(component_solves)
  XB_FIELD(flows_solved)
  XB_FIELD(frontier_flows)
  XB_FIELD(solver_iterations)
  XB_FIELD(bottleneck_links)
  XB_FIELD(largest_component)
  XB_FIELD(writeback_applied)
  XB_FIELD(writeback_skipped)
  XB_FIELD(minshare_incr)
  XB_FIELD(minshare_full)
#undef XB_FIELD
  return nullptr;
}

class ServeWhatif final : public Workload {
 public:
  explicit ServeWhatif(std::uint64_t seed)
      : seed_(seed),
        rng_(kWarmupSeed),
        shadow_(static_cast<int>(seed % kSessions)) {}

  void setup(SetupTimes& t) override {
    snap_ = build_frontier(t);
    const auto m = machines::frontier();
    n_eps_ = compute_endpoints(m);
    n_groups_ = machines::FrontierFabricSpec{}.compute_groups;
    const auto& topo = snap_->topology();
    if (n_groups_ * kEndpointsPerGroup != n_eps_ ||
        topo.group_of_endpoint(n_eps_ - 1) != n_groups_ - 1)
      throw std::runtime_error("serve_whatif: unexpected endpoint layout");

    const std::int64_t t0 = now_ns();
    serve::BatcherConfig cfg;
    cfg.max_sessions = kSessions;
    batcher_ = std::make_unique<serve::Batcher>(snap_, cfg);
    frontend_ = std::make_unique<serve::Frontend>(*batcher_);
    for (int i = 0; i < kSessions; ++i) {
      std::ostringstream o;
      frontend_->handle_line("OPEN", o);
      if (o.str() != "OK " + std::to_string(i) + "\n")
        throw std::runtime_error("serve_whatif: OPEN answered " + o.str());
    }
    run_out_.precision(17);  // RESULT makespans round-trip exactly
    const std::int64_t t1 = now_ns();
    for (int w = 1; w <= kWarmupOps; ++w) {
      prepare(-w);
      run(-w);
      const std::string err = check(-w);
      if (!err.empty())
        throw std::runtime_error("serve_whatif warm-up: " + err);
    }
    rng_ = sim::Rng(seed_);
    t.open_ms = ms_between(t0, t1);
    t.warmup_ms = ms_between(t1, now_ns());
    base_stats_ = total_stats();
    ops_ = 0;
  }

  void prepare(std::int64_t) override {
    lines_.clear();
    for (int s = 0; s < kSessions; ++s) {
      auto& hist = history_[s];
      if (!hist.empty() && rng_.bernoulli(kRepeatFrac)) {
        current_[s] = hist[rng_.index(hist.size())];
      } else {
        current_[s] = fresh(s);
        if (hist.size() == kHistory) hist.erase(hist.begin());
        hist.push_back(current_[s]);
      }
      const auto& l = current_[s].lines;
      lines_.insert(lines_.end(), l.begin(), l.end());
    }
  }

  double run(std::int64_t) override {
    stage_out_.str("");
    run_out_.str("");
    for (const std::string& line : lines_) {
      if (spans.on()) {
        const std::int64_t t0 = now_ns();
        frontend_->handle_line(line, stage_out_);
        spans.add("serve.stage", t0, now_ns());
      } else {
        frontend_->handle_line(line, stage_out_);
      }
    }
    Scope s(spans, "serve.run");
    frontend_->handle_line("RUN", run_out_);
    return kSessions;
  }

  std::string check(std::int64_t op) override {
    // Every staging line answers OK (SUBMIT with its queue depth).
    std::istringstream so(stage_out_.str());
    std::string line;
    std::size_t answers = 0;
    while (std::getline(so, line)) {
      ++answers;
      if (line.rfind("OK", 0) != 0) return "staging answered: " + line;
    }
    if (answers != lines_.size())
      return "staging: " + std::to_string(answers) + " answers for " +
             std::to_string(lines_.size()) + " lines";

    // RUN: one RESULT per SUBMIT, then OK <count>.
    const std::string out = run_out_.str();
    std::istringstream ro(out);
    double makespan[kSessions];
    std::uint64_t dropped[kSessions];
    bool seen[kSessions] = {};
    int results = 0;
    bool trailer = false;
    while (std::getline(ro, line)) {
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      if (tag == "RESULT") {
        int sid = -1, idx = -1;
        double ms = -1;
        std::uint64_t dr = 0;
        if (!(ls >> sid >> idx >> ms >> dr) || sid < 0 || sid >= kSessions ||
            idx != 0 || seen[sid] || !std::isfinite(ms) || ms < 0)
          return "bad RESULT line: " + line;
        seen[sid] = true;
        makespan[sid] = ms;
        dropped[sid] = dr;
        ++results;
      } else if (tag == "OK") {
        int n = -1;
        if (!(ls >> n) || n != kSessions || results != kSessions)
          return "RUN trailer " + line + " after " + std::to_string(results) +
                 " results";
        trailer = true;
      } else {
        return "RUN answered: " + line;
      }
    }
    if (!trailer) return "RUN: no OK trailer";
    digest.add(out);

    const serve::ScenarioSession* ses = batcher_->session(shadow_);
    pending_.push_back({current_[shadow_].sc, makespan[shadow_],
                        dropped[shadow_], ses->fabric().capacity_epoch(),
                        ses->flowsim().stats()});
    if (op < 0) return {};
    ++ops_;
    // Every flow either completes or is dropped.
    for (int sid = 0; sid < kSessions; ++sid)
      completed_ +=
          static_cast<double>(current_[sid].sc.flows.size() - dropped[sid]);
    return replay_pending();
  }

  void counts(const RouteCacheCounts& timed, Counts& out) const override {
    net::FlowSim::Stats d = total_stats();
    accumulate(d, base_stats_, -1);
    flowsim_counts(d, out);
    route_cache_counts(timed, out);
    const double scenarios = static_cast<double>(ops_) * kSessions;
    out["net.flowsim.resolves_per_scenario"] =
        ratio(static_cast<double>(d.resolves), scenarios);
    out["net.flowsim.resolves_per_completion"] =
        ratio(static_cast<double>(d.resolves), completed_);
    out["net.route.overlay_reroutes_per_scenario"] =
        ratio(static_cast<double>(timed.overlay_reroute), scenarios);
  }

 private:
  // The shared == private contract: the shadowed session's whole scenario
  // stream, replayed in order on a fresh session over a privately built
  // snapshot, answers bitwise the same as the shared session did (makespan,
  // drops, overlay epoch and solver-effort stats; per-flow completion times
  // are not on the wire). The whole stream, because sessions carry state
  // (routing RNG, engine clock). Warm-up scenarios wait for the first timed
  // op, so the private fabric is built outside setup.
  std::string replay_pending() {
    if (!private_) {
      SetupTimes unused;
      private_.emplace(build_frontier(unused));
    }
    std::string bad;
    for (const Observed& ob : pending_) {
      serve::ScenarioResult r;
      std::string what;
      try {
        private_->run(ob.sc, r);
        if (!same_bits(r.makespan_s, ob.makespan))
          what =
              "makespan " + exact(r.makespan_s) + " != " + exact(ob.makespan);
        else if (r.dropped != ob.dropped)
          what = "dropped differs";
        else if (r.capacity_epoch != ob.epoch)
          what = "capacity epoch differs";
        else if (const char* f =
                     stats_mismatch(private_->flowsim().stats(), ob.stats))
          what = std::string("stats.") + f + " differs";
      } catch (const std::exception& e) {
        what = std::string("private replay threw: ") + e.what();
      }
      if (bad.empty() && !what.empty()) bad = "shared != private: " + what;
    }
    pending_.clear();
    return bad;
  }

  Staged fresh(int s) {
    Staged st;
    serve::Scenario& sc = st.sc;
    const auto& topo = snap_->topology();
    const int target = static_cast<int>(rng_.index(n_eps_));
    const int tg = topo.group_of_endpoint(target);
    const int n_fail = 1 + static_cast<int>(rng_.index(2));
    std::vector<int> fail_groups;
    while (static_cast<int>(fail_groups.size()) < n_fail) {
      const int g = static_cast<int>(rng_.index(n_groups_));
      if (g == tg || std::find(fail_groups.begin(), fail_groups.end(), g) !=
                         fail_groups.end())
        continue;
      const int up = topo.global_link(g, tg), down = topo.global_link(tg, g);
      if (up < 0 || down < 0) continue;
      fail_groups.push_back(g);
      sc.fail_links.push_back(up);
      sc.fail_links.push_back(down);
    }
    const int n_flows = 32 + static_cast<int>(rng_.index(97));
    for (int f = 0; f < n_flows; ++f) {
      serve::FlowSpec fl;
      if (rng_.bernoulli(0.5)) {
        fl.dst = target;
        if (rng_.bernoulli(0.25)) {
          const int g = fail_groups[rng_.index(fail_groups.size())];
          fl.src = g * kEndpointsPerGroup +
                   static_cast<int>(rng_.index(kEndpointsPerGroup));
        } else {
          fl.src = static_cast<int>(rng_.index(n_eps_));
        }
      } else {
        fl.src = static_cast<int>(rng_.index(n_eps_));
        fl.dst = static_cast<int>(rng_.index(n_eps_));
      }
      if (fl.src == fl.dst) fl.src = (fl.src + 1) % n_eps_;
      fl.bytes = static_cast<double>(1 + rng_.index(64)) * (1 << 20);
      fl.start_s = rng_.bernoulli(0.8)
                       ? 0.0
                       : 1e-6 * static_cast<double>(1 + rng_.index(1000));
      sc.flows.push_back(fl);
    }

    const std::string id = std::to_string(s);
    std::string fail = "FAIL " + id;
    for (int l : sc.fail_links) fail += " " + std::to_string(l);
    st.lines.push_back(fail);
    for (const serve::FlowSpec& fl : sc.flows)
      st.lines.push_back("FLOW " + id + " " + std::to_string(fl.src) + " " +
                         std::to_string(fl.dst) + " " + exact(fl.bytes) + " " +
                         exact(fl.start_s));
    st.lines.push_back("SUBMIT " + id);
    return st;
  }

  net::FlowSim::Stats total_stats() const {
    net::FlowSim::Stats sum;
    for (int s = 0; s < kSessions; ++s)
      accumulate(sum, batcher_->session(s)->flowsim().stats());
    return sum;
  }

  std::uint64_t seed_;
  sim::Rng rng_;  // the warm-up's inputs, then the run's
  int shadow_;
  std::shared_ptr<const net::TopologySnapshot> snap_;
  std::unique_ptr<serve::Batcher> batcher_;
  std::unique_ptr<serve::Frontend> frontend_;
  int n_eps_ = 0;
  int n_groups_ = 0;

  std::vector<Staged> history_[kSessions];
  Staged current_[kSessions];
  std::vector<std::string> lines_;
  std::ostringstream stage_out_;
  std::ostringstream run_out_;
  std::vector<Observed> pending_;  // shadowed scenarios not yet replayed
  std::optional<serve::ScenarioSession> private_;

  net::FlowSim::Stats base_stats_;
  double completed_ = 0;  // flows completed in timed ops
  std::int64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_whatif(std::uint64_t seed) {
  return std::make_unique<ServeWhatif>(seed);
}

}  // namespace xbench
