// Session batcher: admission control + deterministic parallel execution.
//
// The batcher owns up to `max_sessions` ScenarioSessions over ONE shared
// snapshot and runs their queued scenarios through `sim::parallel_for` at
// grain 1 (one session per chunk). Determinism contract (pinned by the
// differential test in tests/test_serve.cpp): each session's results are
// byte-identical to running that session alone, serially, at any thread
// count. That holds because sessions share nothing mutable — the snapshot
// holds no mutable state (routes are derived per call from its topology), and
// every overlay, engine, FlowSim and scratch buffer is per-session.
//
// Admission and backpressure are explicit and observable: opening past
// capacity or submitting past the queue bound is *rejected* (false / -1),
// never silently dropped, and every decision ticks an obs::MetricsRegistry
// counter under `serve.*`.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/session.hpp"

namespace xscale::serve {

struct BatcherConfig {
  int max_sessions = 64;
  // Per-session queued-scenario bound; `submit` past it is backpressure.
  std::size_t max_pending = 1024;
  net::FlowSimConfig sim = ScenarioSession::default_sim_config();
};

class Batcher {
 public:
  Batcher(std::shared_ptr<const net::TopologySnapshot> snap,
          BatcherConfig cfg = {});
  ~Batcher();

  const std::shared_ptr<const net::TopologySnapshot>& snapshot() const {
    return snap_;
  }

  // Returns a session id, or -1 when at max_sessions (counted as a
  // rejection). Ids are reused after close; a fresh session starts cold.
  int open_session();
  bool close_session(int id);

  // Queue a scenario on an open session. False = invalid id or backpressure;
  // a rejected rvalue submit does NOT consume `sc`, so callers holding staged
  // state (the Frontend) can retry the same scenario after the queue drains.
  bool submit(int id, Scenario&& sc);
  bool submit(int id, const Scenario& sc) { return submit(id, Scenario(sc)); }

  // Drain every queue: sessions run concurrently (parallel_for, grain 1),
  // each session's scenarios strictly in submit order. Returns results
  // indexed [session id][scenario], empty vectors for idle/closed ids.
  // Scenario errors — validation rejects *and* mid-run solver/routing
  // throws — surface per-scenario as a sentinel result (completion_s empty,
  // dropped == 0, makespan < 0) rather than tearing down sibling sessions;
  // the erroring session itself stays open and serves its next scenario.
  std::vector<std::vector<ScenarioResult>> run_batch();

  ScenarioSession* session(int id);
  int open_sessions() const;
  std::size_t pending() const;
  const BatcherConfig& config() const { return cfg_; }

 private:
  struct Slot {
    std::unique_ptr<ScenarioSession> session;  // null = closed
    std::vector<Scenario> queue;
  };
  bool valid_open(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < slots_.size() &&
           slots_[static_cast<std::size_t>(id)].session != nullptr;
  }

  std::shared_ptr<const net::TopologySnapshot> snap_;
  BatcherConfig cfg_;
  std::vector<Slot> slots_;
  std::vector<int> free_ids_;
};

}  // namespace xscale::serve
