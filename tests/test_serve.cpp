// Serving-layer tests (ISSUE 7): shared-snapshot sessions must be
// indistinguishable from private-fabric sessions — bitwise — at any thread
// count, and sibling sessions must be perfectly isolated (no epoch
// movement leaks across overlays). The acceptance scenario runs 64
// concurrent failure-overlay sessions over one 1,024-endpoint snapshot and
// proves isolation with counters. All of this runs under the TSan CI job,
// which doubles as the data-race check on the shared snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <vector>

#include "net/rotor.hpp"
#include "net/snapshot.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/frontend.hpp"
#include "serve/session.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"

// ---------------------------------------------------------------------------
// Interposed counting allocator (same harness as bench/micro_flowsim): every
// global new/new[] bumps one relaxed atomic, so the allocation-free repeated-
// scenario claim is checked against the real allocator, not a model of it.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace xscale;

struct ThreadCountGuard {
  ~ThreadCountGuard() { sim::set_thread_count(1); }
};

topo::Topology small_topology() {
  return topo::Topology::uniform_dragonfly(6, {4, 4}, 1, 25e9, 180e-9);
}

topo::Topology big_topology() {
  // The ISSUE 7 acceptance fabric: 16 x 8 x 8 = 1,024 endpoints.
  return topo::Topology::uniform_dragonfly(16, {8, 8}, 1, 25e9, 180e-9);
}

net::FabricConfig minimal_cfg() {
  net::FabricConfig cfg;
  cfg.routing = net::Routing::Minimal;  // deterministic paths
  return cfg;
}

// Session i's scenario stream: a distinct failed global bundle, a capacity
// override on its own injection link, and a small incast, then churn —
// restore, refail, repeat one scenario verbatim (diff-apply bait).
std::vector<serve::Scenario> scenario_stream(const topo::Topology& topo,
                                             int i) {
  const int ng = topo.num_groups();
  const int neps = topo.num_endpoints();
  const int gl = topo.global_link(i % ng, (i + 1) % ng);
  const int target = (i * 7) % neps;
  const auto flow = [&](int k, double bytes) {
    serve::FlowSpec f;
    f.src = (target + 1 + k) % neps;
    f.dst = target;
    f.bytes = bytes;
    return f;
  };

  serve::Scenario fail_sc;
  fail_sc.fail_links.push_back(gl);
  fail_sc.capacity_overrides.emplace_back(topo.injection_link(target),
                                          12.5e9);
  for (int k = 0; k < 5; ++k) fail_sc.flows.push_back(flow(k, 1e6));

  serve::Scenario clean_sc;  // everything restored
  for (int k = 0; k < 3; ++k) clean_sc.flows.push_back(flow(k, 2e6));

  // fail -> fail (identical, an empty overlay diff) -> clean -> fail again
  return {fail_sc, fail_sc, clean_sc, fail_sc};
}

// ISSUE 9: the rotor analogue of scenario_stream. Slot state is ordinary
// overlay capacity state, so a served "advance to slot s" is just capacity
// overrides: matching 0's links to zero, matching s's links to the active
// capacity. Session i parks in slot 1 + (i % (m-1)) and runs flows that ride
// exactly that matching, then returns to slot 0 (override-free), then back —
// the same fail/fail/clean/fail churn shape as the dragonfly stream.
std::vector<serve::Scenario> rotor_scenario_stream(const topo::Topology& topo,
                                                   int i) {
  const int n_sw = topo.num_groups();
  const int eps_per = topo.num_endpoints() / n_sw;
  const int m = topo.rotor_matchings();
  const int slot = 1 + (i % (m - 1));
  const int a = i % n_sw;
  const auto flows_via = [&](int s, double bytes) {
    // Matching s holds links a -> (a + s + 1) mod n; flows between those two
    // switches' endpoints ride it.
    std::vector<serve::FlowSpec> fl;
    const int b = (a + s + 1) % n_sw;
    for (int k = 0; k < 3; ++k) {
      serve::FlowSpec f;
      f.src = a * eps_per + k;
      f.dst = b * eps_per + k;
      f.bytes = bytes;
      fl.push_back(f);
    }
    return fl;
  };

  serve::Scenario slot_sc;  // slot `slot`: matching 0 dark, matching s live
  for (int l : topo.rotor_matching_links(0))
    slot_sc.capacity_overrides.emplace_back(l, 0.0);
  for (int l : topo.rotor_matching_links(slot))
    slot_sc.capacity_overrides.emplace_back(l, topo.rotor_active_capacity());
  slot_sc.flows = flows_via(slot, 1e6);

  serve::Scenario clean_sc;  // back to slot 0 (the snapshot's base pricing)
  clean_sc.flows = flows_via(0, 2e6);

  return {slot_sc, slot_sc, clean_sc, slot_sc};
}

using StreamFn = std::vector<serve::Scenario> (*)(const topo::Topology&, int);

std::vector<std::vector<serve::ScenarioResult>> run_shared(
    std::shared_ptr<const net::TopologySnapshot> snap, int n_sessions,
    StreamFn stream = scenario_stream) {
  serve::BatcherConfig cfg;
  cfg.max_sessions = n_sessions;
  serve::Batcher batcher(snap, cfg);
  std::vector<int> ids;
  for (int i = 0; i < n_sessions; ++i) {
    const int id = batcher.open_session();
    EXPECT_GE(id, 0);
    ids.push_back(id);
  }
  for (int i = 0; i < n_sessions; ++i)
    for (const auto& sc : stream(snap->topology(), i))
      EXPECT_TRUE(batcher.submit(ids[static_cast<std::size_t>(i)], sc));
  auto res = batcher.run_batch();
  res.resize(static_cast<std::size_t>(n_sessions));
  return res;
}

// The oracle: every session gets its own private Fabric (its own snapshot),
// run serially.
std::vector<std::vector<serve::ScenarioResult>> run_private(
    const topo::Topology& topo, net::FabricConfig cfg, int n_sessions,
    StreamFn stream = scenario_stream) {
  std::vector<std::vector<serve::ScenarioResult>> res(
      static_cast<std::size_t>(n_sessions));
  for (int i = 0; i < n_sessions; ++i) {
    serve::ScenarioSession session(net::make_snapshot(topo, cfg));
    for (const auto& sc : stream(topo, i))
      res[static_cast<std::size_t>(i)].push_back(session.run(sc));
  }
  return res;
}

void expect_bitwise_equal(
    const std::vector<std::vector<serve::ScenarioResult>>& a,
    const std::vector<std::vector<serve::ScenarioResult>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size()) << "session " << s;
    for (std::size_t i = 0; i < a[s].size(); ++i) {
      const auto& ra = a[s][i];
      const auto& rb = b[s][i];
      ASSERT_EQ(ra.completion_s.size(), rb.completion_s.size());
      for (std::size_t f = 0; f < ra.completion_s.size(); ++f)
        EXPECT_EQ(ra.completion_s[f], rb.completion_s[f])
            << "session " << s << " scenario " << i << " flow " << f;
      EXPECT_EQ(ra.makespan_s, rb.makespan_s) << "session " << s;
      EXPECT_EQ(ra.dropped, rb.dropped);
      EXPECT_EQ(ra.capacity_epoch, rb.capacity_epoch);
    }
  }
}

// --- differential: shared snapshot == private fabrics, any thread count ----

TEST(ServeDifferential, SharedSnapshotBitwiseEqualsPrivateFabrics) {
  ThreadCountGuard guard;
  const auto topo = small_topology();
  const auto cfg = minimal_cfg();
  const auto oracle = run_private(topo, cfg, 8);
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    const auto got = run_shared(net::make_snapshot(topo, cfg), 8);
    expect_bitwise_equal(got, oracle);
  }
}

TEST(ServeDifferential, AdaptiveRoutingStaysDeterministicPerSession) {
  // Adaptive routing draws from the per-session FlowSim rng — still
  // per-session state, so the contract must hold there too.
  ThreadCountGuard guard;
  const auto topo = small_topology();
  const net::FabricConfig cfg;  // default: adaptive + congestion control
  const auto oracle = run_private(topo, cfg, 4);
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    const auto got = run_shared(net::make_snapshot(topo, cfg), 4);
    expect_bitwise_equal(got, oracle);
  }
}

// --- ISSUE 7 acceptance: 64 sessions, 1,024 endpoints, zero sibling churn --

TEST(ServeAcceptance, SixtyFourSessionsOneSnapshotZeroSiblingInvalidation) {
  ThreadCountGuard guard;
  sim::set_thread_count(8);
  auto snap = net::make_snapshot(big_topology(), minimal_cfg());

  serve::BatcherConfig cfg;
  cfg.max_sessions = 64;
  serve::Batcher batcher(snap, cfg);
  std::vector<int> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(batcher.open_session());
  ASSERT_EQ(batcher.open_sessions(), 64);

  // Session 0 never fails anything: it is the sibling whose caches must
  // survive the other 63 sessions' failure churn untouched.
  serve::Scenario clean;
  for (int k = 0; k < 4; ++k) {
    serve::FlowSpec f;
    f.src = 100 + k;
    f.dst = 17;
    f.bytes = 1e6;
    clean.flows.push_back(f);
  }
  const auto submit_round = [&] {
    EXPECT_TRUE(batcher.submit(ids[0], clean));
    for (int i = 1; i < 64; ++i)
      for (const auto& sc : scenario_stream(snap->topology(), i))
        EXPECT_TRUE(batcher.submit(ids[static_cast<std::size_t>(i)], sc));
  };

  submit_round();
  auto first = batcher.run_batch();

  // Sibling isolation, proven by counters: 63 sessions of fail/restore churn
  // ran since session 0's first run, and its solo re-run must not notice.
  EXPECT_TRUE(batcher.submit(ids[0], clean));
  auto solo = batcher.run_batch();
  const auto& solo_res = solo[static_cast<std::size_t>(ids[0])];
  ASSERT_EQ(solo_res.size(), 1u);
  // session 0 never mutated its overlay, so its epoch is pinned at 0 — no
  // sibling's fail/restore reached it.
  EXPECT_EQ(batcher.session(ids[0])->fabric().capacity_epoch(), 0u);
  // And the repeat is bitwise-stable.
  EXPECT_EQ(first[static_cast<std::size_t>(ids[0])][0].makespan_s,
            solo_res[0].makespan_s);

  // The failure sessions did real overlay work (their own epochs moved) —
  // the isolation above is not vacuous.
  EXPECT_GT(batcher.session(ids[1])->fabric().capacity_epoch(), 0u);
  EXPECT_GT(batcher.session(ids[1])->fabric().failed_links(), 0);
}

// --- ISSUE 9: rotor fabrics under the serving layer ------------------------

topo::Topology rotor_topology() {
  // 6 single-switch groups x 4 endpoints, full coverage (5 matchings).
  return topo::Topology::rotor(6, 4, 5, 100e-6, 0.9, 25e9, 180e-9);
}

// The full serving differential extends to rotor fabrics unchanged: shared
// snapshot + COW overlays bitwise-equals private fabrics at every thread
// count, with slot state served as ordinary capacity overrides.
TEST(ServeRotor, SharedSnapshotBitwiseEqualsPrivateFabrics) {
  ThreadCountGuard guard;
  const auto topo = rotor_topology();
  const auto cfg = minimal_cfg();
  const auto oracle = run_private(topo, cfg, 8, rotor_scenario_stream);
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    const auto got =
        run_shared(net::make_snapshot(topo, cfg), 8, rotor_scenario_stream);
    expect_bitwise_equal(got, oracle);
  }
}

// Sibling isolation under slot churn, at the serving layer: while other
// sessions rotate their live matching scenario after scenario, a session
// parked in slot 0 must see zero epoch movement — slot state is overlay
// state, so the session isolation contract covers it with no new
// machinery.
TEST(ServeRotor, SlotChurnSessionsLeaveSiblingUntouched) {
  ThreadCountGuard guard;
  sim::set_thread_count(8);
  auto snap = net::make_snapshot(rotor_topology(), minimal_cfg());

  serve::BatcherConfig cfg;
  cfg.max_sessions = 8;
  serve::Batcher batcher(snap, cfg);
  std::vector<int> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(batcher.open_session());

  // Session 0 stays in slot 0 forever: flows riding matching 0, no overrides.
  const auto clean = rotor_scenario_stream(snap->topology(), 0)[2];
  const auto submit_round = [&] {
    EXPECT_TRUE(batcher.submit(ids[0], clean));
    for (int i = 1; i < 8; ++i)
      for (const auto& sc : rotor_scenario_stream(snap->topology(), i))
        EXPECT_TRUE(batcher.submit(ids[static_cast<std::size_t>(i)], sc));
  };
  submit_round();
  auto first = batcher.run_batch();

  EXPECT_TRUE(batcher.submit(ids[0], clean));
  auto solo = batcher.run_batch();
  EXPECT_EQ(batcher.session(ids[0])->fabric().capacity_epoch(), 0u);
  // Bitwise-stable repeat for the slot-0 sibling.
  const auto& solo_res = solo[static_cast<std::size_t>(ids[0])];
  ASSERT_EQ(solo_res.size(), 1u);
  EXPECT_EQ(first[static_cast<std::size_t>(ids[0])][0].makespan_s,
            solo_res[0].makespan_s);
  // The churners really rotated (epochs moved) — isolation is not vacuous.
  EXPECT_GT(batcher.session(ids[1])->fabric().capacity_epoch(), 0u);
}

// The acceptance criterion verbatim: a real RotorSchedule driving slot
// transitions on one overlay must leave a sibling fabric on the SAME shared
// snapshot completely untouched — sibling epoch pinned at 0 and a bitwise
// identical re-run, because a transition re-prices links without ever
// re-steering a route.
TEST(ServeRotor, RotorScheduleChurnDoesNotInvalidateSiblingFabric) {
  auto snap = net::make_snapshot(rotor_topology(), minimal_cfg());
  net::Fabric churner(snap);
  net::Fabric sibling(snap);
  const double slot = snap->topology().rotor_slot_s();
  const int eps_per = 4;

  // Warm the sibling: flows between adjacent switches (matching 0, live at
  // the snapshot's base slot 0), run to completion.
  const auto run_sibling = [&] {
    sim::Engine eng;
    net::FlowSim fs(eng, sibling, {});
    double makespan = 0;
    for (int a = 0; a < 6; ++a)
      for (int k = 0; k < eps_per; ++k)
        fs.start(a * eps_per + k, ((a + 1) % 6) * eps_per + k, 1e6,
                 [&] { makespan = eng.now(); });
    eng.run();
    return makespan;
  };
  const double warm_makespan = run_sibling();

  // Churn: a live RotorSchedule walks the churner's overlay through > 20
  // slot transitions with traffic in flight.
  {
    sim::Engine eng;
    net::FlowSim fs(eng, churner, {});
    net::RotorSchedule rotor(eng, churner, &fs);
    rotor.start();
    eng.schedule_in(20.5 * slot, [] {});
    eng.run();
    EXPECT_GE(rotor.transitions(), 20u);
    EXPECT_GT(churner.capacity_epoch(), 0u);
  }

  // The sibling saw none of it: epoch pinned, results bitwise identical to
  // the pre-churn run.
  EXPECT_EQ(sibling.capacity_epoch(), 0u);
  const double makespan_after = run_sibling();
  EXPECT_EQ(makespan_after, warm_makespan);
}

// --- admission control + backpressure --------------------------------------

TEST(ServeBatcher, AdmissionControlRejectsPastCapacity) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::BatcherConfig cfg;
  cfg.max_sessions = 2;
  serve::Batcher batcher(snap, cfg);
  const auto rejected_before =
      obs::metrics().counter("serve.sessions_rejected").value();
  const int a = batcher.open_session();
  const int b = batcher.open_session();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, 0);
  EXPECT_EQ(batcher.open_session(), -1);
  EXPECT_EQ(obs::metrics().counter("serve.sessions_rejected").value(),
            rejected_before + 1);
  // Close frees a slot; a reopened session starts cold but is admitted.
  EXPECT_TRUE(batcher.close_session(a));
  EXPECT_FALSE(batcher.close_session(a));  // double close is a no-op
  EXPECT_GE(batcher.open_session(), 0);
}

TEST(ServeBatcher, SubmitBackpressureAndInvalidSession) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::BatcherConfig cfg;
  cfg.max_pending = 2;
  serve::Batcher batcher(snap, cfg);
  const int id = batcher.open_session();
  serve::Scenario sc;
  serve::FlowSpec f;
  f.src = 0;
  f.dst = 5;
  f.bytes = 1e6;
  sc.flows.push_back(f);
  EXPECT_TRUE(batcher.submit(id, sc));
  EXPECT_TRUE(batcher.submit(id, sc));
  EXPECT_FALSE(batcher.submit(id, sc)) << "queue bound must backpressure";
  EXPECT_FALSE(batcher.submit(id + 99, sc)) << "unknown session must reject";
  EXPECT_EQ(batcher.pending(), 2u);
  auto res = batcher.run_batch();
  EXPECT_EQ(batcher.pending(), 0u);
  ASSERT_EQ(res[static_cast<std::size_t>(id)].size(), 2u);
  EXPECT_TRUE(batcher.submit(id, sc)) << "drained queue accepts again";
}

TEST(ServeBatcher, MalformedScenarioFailsAloneAndKeepsSessionUsable) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::Batcher batcher(snap);
  const int id = batcher.open_session();
  serve::Scenario bad;
  serve::FlowSpec f;
  f.src = 0;
  f.dst = 0;  // src == dst: invalid
  f.bytes = 1e6;
  bad.flows.push_back(f);
  serve::Scenario good;
  f.dst = 3;
  good.flows.push_back(f);
  EXPECT_TRUE(batcher.submit(id, bad));
  EXPECT_TRUE(batcher.submit(id, good));
  auto res = batcher.run_batch();
  ASSERT_EQ(res[static_cast<std::size_t>(id)].size(), 2u);
  EXPECT_LT(res[static_cast<std::size_t>(id)][0].makespan_s, 0)
      << "malformed scenario reports the sentinel";
  EXPECT_GT(res[static_cast<std::size_t>(id)][1].makespan_s, 0)
      << "the session survives and serves the next scenario";
}

// --- session semantics ------------------------------------------------------

TEST(ServeSession, RepeatedScenarioIsDiffAppliedAndEpochStable) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::ScenarioSession session(snap);
  const auto stream = scenario_stream(snap->topology(), 1);
  const auto r1 = session.run(stream[0]);
  const auto r2 = session.run(stream[0]);  // identical, back to back
  // Identical scenario => overlay diff is empty => same epoch (no fail or
  // restore actually ran), so nothing keyed on the epoch was invalidated,
  // and the repeat is bitwise-stable.
  EXPECT_EQ(r1.capacity_epoch, r2.capacity_epoch);
  EXPECT_EQ(r1.makespan_s, r2.makespan_s);
  ASSERT_EQ(r1.completion_s.size(), r2.completion_s.size());
  for (std::size_t i = 0; i < r1.completion_s.size(); ++i)
    EXPECT_EQ(r1.completion_s[i], r2.completion_s[i]);
}

TEST(ServeSession, RepeatedScenarioIsAllocationFreeAndReusesScratch) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  // Incremental off: every resolve takes the cold full solve through
  // solve_component — the one site that feeds `net.solver.scratch_reuse`
  // — so the counter proves the per-session SolveScratch (and the component
  // CSR/caps/rates arenas around it) survives across scenarios instead of
  // being rebuilt per resolve.
  net::FlowSimConfig cfg = serve::ScenarioSession::default_sim_config();
  cfg.incremental = false;
  serve::ScenarioSession session(snap, cfg);
  const auto stream = scenario_stream(snap->topology(), 2);
  const serve::Scenario& sc = stream[0];

  serve::ScenarioResult out;
  for (int k = 0; k < 3; ++k) session.run(sc, out);  // warm every arena

  auto& reuse = obs::metrics().counter("net.solver.scratch_reuse");
  const std::uint64_t reuse0 = reuse.value();
  const std::uint64_t a0 = heap_allocs();
  constexpr int kRepeats = 8;
  for (int k = 0; k < kRepeats; ++k) session.run(sc, out);
  const std::uint64_t a1 = heap_allocs();
  const std::uint64_t reuse1 = reuse.value();

  EXPECT_EQ(a1 - a0, 0u)
      << "a warmed session must answer a repeated scenario with zero heap "
         "allocations: scheduled closures must fit std::function's buffer "
         "and all scratch must be session-lifetime";
  EXPECT_GE(reuse1 - reuse0, static_cast<std::uint64_t>(kRepeats))
      << "each repeated scenario must reuse the session's solver scratch at "
         "least once";
}

TEST(ServeSession, DropsFlowsThatOnlyCrossFailedTerminalLinks) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::ScenarioSession session(snap);
  serve::Scenario sc;
  sc.fail_links.push_back(snap->topology().ejection_link(9));
  serve::FlowSpec f;
  f.src = 2;
  f.dst = 9;
  f.bytes = 1e6;
  sc.flows.push_back(f);
  f.dst = 11;
  sc.flows.push_back(f);
  const auto r = session.run(sc);
  EXPECT_EQ(r.dropped, 1u);
  EXPECT_EQ(r.completion_s[0], -1.0) << "flow into the dead NIC is dropped";
  EXPECT_GT(r.completion_s[1], 0.0) << "unrelated flow completes";
}

// The per-flow reference for a session's batched starts: the session's
// former start loop, one engine event and one resolve per flow, over a
// fresh fabric carrying the scenario's overlay.
serve::ScenarioResult per_flow_reference(
    std::shared_ptr<const net::TopologySnapshot> snap, const serve::Scenario& sc,
    net::FlowSimConfig cfg) {
  net::Fabric fabric(std::move(snap));
  for (int l : sc.fail_links) fabric.fail_link(l);
  for (const auto& [l, cap] : sc.capacity_overrides)
    fabric.set_link_capacity(l, cap);
  sim::Engine eng;
  net::FlowSim fs(eng, fabric, cfg);
  serve::ScenarioResult res;
  res.completion_s.assign(sc.flows.size(), -1.0);
  for (std::size_t i = 0; i < sc.flows.size(); ++i)
    eng.schedule_at(sc.flows[i].start_s, [&, i] {
      const serve::FlowSpec& f = sc.flows[i];
      fs.start(f.src, f.dst, f.bytes,
               [&, i] { res.completion_s[i] = eng.now(); });
    });
  eng.run();
  res.makespan_s = eng.now();
  res.dropped = fs.dropped_flows();
  res.stats = fs.stats();
  return res;
}

// Seeded random scenarios with failed terminal links and 0 B/s overrides,
// most flows at t = 0 and the rest on a coarse grid of later instants (so
// later instants start groups too, while earlier flows drain): a session's
// one-resolve-per-instant start equals per-flow starts bitwise, in
// completion times, drops and makespan, under Stall and Drop, incremental
// and cold, with adaptive routing.
TEST(ServeSession, BatchedStartsEqualPerFlowStartsBitwise) {
  auto snap = net::make_snapshot(small_topology(), net::FabricConfig{});
  const auto& topo = snap->topology();
  const int eps = topo.num_endpoints();
  std::uint64_t dropped = 0, fewer_resolves = 0;
  int scenarios = 0;
  for (net::StallPolicy policy :
       {net::StallPolicy::Stall, net::StallPolicy::Drop}) {
    for (bool incremental : {true, false}) {
      net::FlowSimConfig cfg;
      cfg.incremental = incremental;
      cfg.stall_policy = policy;
      sim::Rng rng(99);
      for (int n = 0; n < 12; ++n, ++scenarios) {
        SCOPED_TRACE(testing::Message()
                     << "policy=" << static_cast<int>(policy)
                     << " incremental=" << incremental << " scenario=" << n);
        serve::Scenario sc;
        // Dead ends on the incast target's switch: dead flows load the
        // switch-switch links live flows take, which steers adaptive routing.
        const int target = 4 * static_cast<int>(rng.index(
                                   static_cast<std::uint64_t>(eps / 4)));
        const int dead = target + 1;
        const int zero = target + 2;
        sc.fail_links.push_back(topo.ejection_link(dead));
        sc.fail_links.push_back(topo.global_link(
            topo.group_of_endpoint(target),
            (topo.group_of_endpoint(target) + 1) % topo.num_groups()));
        sc.capacity_overrides.emplace_back(topo.ejection_link(zero), 0.0);
        const int n_flows = 8 + static_cast<int>(rng.index(40));
        for (int k = 0; k < n_flows; ++k) {
          serve::FlowSpec f;
          f.src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
          const double u = rng.uniform();
          f.dst = u < 0.4   ? target
                  : u < 0.55 ? dead
                  : u < 0.7  ? zero
                            : static_cast<int>(rng.index(
                                  static_cast<std::uint64_t>(eps)));
          if (f.src == f.dst) f.src = (f.src + 1) % eps;
          f.bytes = static_cast<double>(1 + rng.index(64)) * (1 << 16);
          f.start_s = rng.bernoulli(0.7)
                          ? 0.0
                          : 1e-6 * static_cast<double>(1 + rng.index(8));
          sc.flows.push_back(f);
        }
        serve::ScenarioSession session(snap, cfg);
        const auto got = session.run(sc);
        const auto want = per_flow_reference(snap, sc, cfg);
        ASSERT_EQ(got.completion_s.size(), want.completion_s.size());
        for (std::size_t i = 0; i < got.completion_s.size(); ++i)
          EXPECT_EQ(got.completion_s[i], want.completion_s[i]) << "flow " << i;
        EXPECT_EQ(got.makespan_s, want.makespan_s);
        EXPECT_EQ(got.dropped, want.dropped);
        dropped += got.dropped;
        fewer_resolves += got.stats.resolves < want.stats.resolves;
      }
    }
  }
  EXPECT_GT(dropped, 0u) << "the dead ends were never hit";
  EXPECT_EQ(fewer_resolves, static_cast<std::uint64_t>(scenarios));
}

TEST(ServeSession, RejectsMalformedScenariosWithoutTouchingState) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::ScenarioSession session(snap);
  serve::Scenario sc;
  serve::FlowSpec f;
  f.src = 0;
  f.dst = 1;
  f.bytes = -5;  // invalid
  sc.flows.push_back(f);
  EXPECT_THROW(session.run(sc), std::invalid_argument);
  EXPECT_EQ(session.fabric().capacity_epoch(), 0u);
  // Non-finite sizes would never drain: +inf, -inf and NaN are rejected too.
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    sc.flows[0].bytes = bad;
    EXPECT_THROW(session.run(sc), std::invalid_argument) << bad;
    EXPECT_EQ(session.fabric().capacity_epoch(), 0u);
  }
  sc.flows[0].bytes = 1e6;
  // An infinite start would make the engine reject its event mid-schedule,
  // leaving the events already queued for this scenario behind.
  sc.flows.push_back(sc.flows[0]);
  sc.flows[1].start_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(session.run(sc), std::invalid_argument);
  EXPECT_EQ(session.fabric().capacity_epoch(), 0u);
  sc.flows.pop_back();
  sc.fail_links.push_back(1 << 28);  // out of range
  EXPECT_THROW(session.run(sc), std::invalid_argument);
  EXPECT_EQ(session.fabric().capacity_epoch(), 0u);
  sc.fail_links.clear();
  EXPECT_GT(session.run(sc).makespan_s, 0.0) << "session still healthy";
}

TEST(ServeSession, MidRunSolverErrorLeavesSessionReusable) {
  // Regression: capacity override *values* are deliberately unvalidated, so
  // the solver throws mid-run. The queued flow-start/completion events
  // captured that run's stack-local result; before the fix they survived the
  // throw and fired on the next run through the dangling reference
  // (use-after-free, caught by ASan). Now the engine + sim are rebuilt on the
  // way out and the session serves the next scenario cleanly.
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::ScenarioSession session(snap);
  serve::FlowSpec f;
  f.src = 5;
  f.dst = 9;
  f.bytes = 1e6;
  serve::Scenario bad;
  bad.capacity_overrides.emplace_back(snap->topology().injection_link(5),
                                      -1.0);  // solver rejects at resolve
  bad.flows.push_back(f);
  EXPECT_THROW(session.run(bad), std::invalid_argument);

  serve::Scenario good;
  good.flows.push_back(f);
  good.flows.push_back(f);  // two flows: leftover events would skew these
  const auto r = session.run(good);
  ASSERT_EQ(r.completion_s.size(), 2u);
  EXPECT_GT(r.makespan_s, 0.0) << "session reusable after mid-run throw";
  EXPECT_GT(r.completion_s[0], 0.0);
  EXPECT_GT(r.completion_s[1], 0.0);
  EXPECT_EQ(r.dropped, 0u);

  // And the result matches a fresh session that never saw the bad scenario:
  // nothing from the aborted run leaked into the replay.
  serve::ScenarioSession fresh(snap);
  const auto rf = fresh.run(good);
  EXPECT_EQ(r.makespan_s, rf.makespan_s);
  EXPECT_EQ(r.completion_s[0], rf.completion_s[0]);
  EXPECT_EQ(r.completion_s[1], rf.completion_s[1]);
}

TEST(ServeBatcher, MidRunRoutingErrorIsIsolatedPerScenario) {
  // A scenario can pass validation (all link ids in range) yet fail *inside*
  // the run: cutting every global bundle out of a group leaves routing with
  // no direct bundle and no one-intermediate-group detour, which throws
  // std::runtime_error. run_batch must isolate it like any other scenario
  // error — sentinel result, session and siblings live, queues drained.
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  const auto& topo = snap->topology();
  serve::Batcher batcher(snap);
  const int a = batcher.open_session();
  const int b = batcher.open_session();

  int dst_other_group = -1;
  for (int e = 0; e < topo.num_endpoints(); ++e) {
    if (topo.group_of_switch(topo.endpoint_switch(e)) != 0) {
      dst_other_group = e;
      break;
    }
  }
  ASSERT_GE(dst_other_group, 0);

  serve::FlowSpec f;
  f.src = 0;  // group 0
  f.dst = dst_other_group;
  f.bytes = 1e6;
  serve::Scenario cut;  // group 0 fully disconnected
  for (int g = 1; g < topo.num_groups(); ++g)
    cut.fail_links.push_back(topo.global_link(0, g));
  cut.flows.push_back(f);
  serve::Scenario good;
  good.flows.push_back(f);

  EXPECT_TRUE(batcher.submit(a, cut));
  EXPECT_TRUE(batcher.submit(a, good));
  EXPECT_TRUE(batcher.submit(b, good));
  const auto failed_before =
      obs::metrics().counter("serve.scenarios_failed").value();
  auto res = batcher.run_batch();  // must not throw
  ASSERT_EQ(res[static_cast<std::size_t>(a)].size(), 2u);
  EXPECT_LT(res[static_cast<std::size_t>(a)][0].makespan_s, 0)
      << "routing failure reports the sentinel";
  EXPECT_GT(res[static_cast<std::size_t>(a)][1].makespan_s, 0)
      << "the session survives the mid-run throw";
  ASSERT_EQ(res[static_cast<std::size_t>(b)].size(), 1u);
  EXPECT_GT(res[static_cast<std::size_t>(b)][0].makespan_s, 0)
      << "sibling session unaffected";
  EXPECT_EQ(batcher.pending(), 0u) << "queues drained, gauges consistent";
  EXPECT_EQ(obs::metrics().counter("serve.scenarios_failed").value(),
            failed_before + 1);
}

// --- frontend ---------------------------------------------------------------

TEST(ServeFrontend, LineProtocolEndToEnd) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::BatcherConfig cfg;
  cfg.max_sessions = 2;
  serve::Batcher batcher(snap, cfg);
  serve::Frontend frontend(batcher);

  const int gl = snap->topology().global_link(0, 1);
  std::ostringstream script;
  script << "OPEN\n"
         << "OPEN\n"
         << "OPEN\n"  // third must hit admission control
         << "FAIL 0 " << gl << "\n"
         << "FLOW 0 1 20 1000000\n"
         << "FLOW 1 2 30 1000000 0.5\n"
         << "SUBMIT 0\n"
         << "SUBMIT 1\n"
         << "RUN\n"
         << "BOGUS\n"
         << "CLOSE 1\n"
         << "QUIT\n";
  std::istringstream in(script.str());
  std::ostringstream out;
  frontend.serve(in, out);

  const std::string text = out.str();
  EXPECT_NE(text.find("OK 0\n"), std::string::npos);
  EXPECT_NE(text.find("OK 1\n"), std::string::npos);
  EXPECT_NE(text.find("ERR at-capacity"), std::string::npos);
  EXPECT_NE(text.find("RESULT 0 0 "), std::string::npos);
  EXPECT_NE(text.find("RESULT 1 0 "), std::string::npos);
  EXPECT_NE(text.find("ERR unknown-command BOGUS"), std::string::npos);
  // QUIT answered and loop exited (serve returned before we got here).
  EXPECT_EQ(batcher.open_sessions(), 1);
}

TEST(ServeFrontend, SubmitKeepsStagedStateOnRejection) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::BatcherConfig cfg;
  cfg.max_pending = 1;
  serve::Batcher batcher(snap, cfg);
  serve::Frontend frontend(batcher);
  std::ostringstream setup;
  EXPECT_TRUE(frontend.handle_line("OPEN", setup));

  // Nothing staged: SUBMIT must be an error, not an empty-scenario enqueue.
  std::ostringstream empty;
  EXPECT_TRUE(frontend.handle_line("SUBMIT 0", empty));
  EXPECT_NE(empty.str().find("ERR nothing-staged"), std::string::npos);
  EXPECT_EQ(batcher.pending(), 0u);

  // Fill the queue (max_pending = 1), then stage a second scenario and hit
  // backpressure: the staged FLOW must survive for retry.
  EXPECT_TRUE(frontend.handle_line("FLOW 0 1 20 1000000", setup));
  EXPECT_TRUE(frontend.handle_line("SUBMIT 0", setup));
  EXPECT_TRUE(frontend.handle_line("FLOW 0 2 30 1000000", setup));
  std::ostringstream rejected;
  EXPECT_TRUE(frontend.handle_line("SUBMIT 0", rejected));
  EXPECT_NE(rejected.str().find("ERR backpressure"), std::string::npos);

  std::ostringstream drain;
  EXPECT_TRUE(frontend.handle_line("RUN", drain));
  std::ostringstream retry;
  EXPECT_TRUE(frontend.handle_line("SUBMIT 0", retry));
  EXPECT_NE(retry.str().find("OK"), std::string::npos)
      << "retry after drain must succeed with the staged scenario intact";
  std::ostringstream run2;
  EXPECT_TRUE(frontend.handle_line("RUN", run2));
  // The retried scenario still carried its flow: a non-trivial makespan.
  const std::string text = run2.str();
  const auto pos = text.find("RESULT 0 0 ");
  ASSERT_NE(pos, std::string::npos);
  double makespan = -1;
  std::istringstream(text.substr(pos + 11)) >> makespan;
  EXPECT_GT(makespan, 0.0)
      << "backpressure must not have destroyed the staged flow";
}

// A rejected line stages nothing: the staged scenarios compare equal before
// and after every one of them, including the lines that used to stage part
// of themselves (an empty FAIL created the session's entry, "12abc" staged
// link 12, "1e999" staged a start of DBL_MAX).
TEST(ServeFrontend, RejectedLinesStageNothing) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::Batcher batcher(snap);
  serve::Frontend frontend(batcher);
  std::ostringstream setup;
  ASSERT_TRUE(frontend.handle_line("OPEN", setup));
  ASSERT_TRUE(frontend.handle_line("OPEN", setup));

  const std::vector<std::string> rejected = {
      "FAIL 0", "FAIL 0 12abc", "FAIL 0 3 12abc", "FAIL 0 3 x", "FAIL 0 1e3",
      "FAIL 0 99999999999", "FAIL 7 3", "FAIL x 3",
      "FLOW 0 1 20 1000000 1e999", "FLOW 0 1 20 1000000 0.5abc",
      "FLOW 0 1 20 1000000 -1e999", "FLOW 0 1 20 1e6abc", "FLOW 0 1 20",
      "FLOW 7 1 20 1000000", "DELTA 0 5 12abc", "DELTA 0 5 1e999",
      "DELTA 0 5", "DELTA 7 5 1e9",
      // Integer fields that stop short of the end of their word.
      "SUBMIT 0abc", "CLOSE 0xyz", "DELTA 0 5.9 7", "FLOW 1 1 2.5 100"};
  // Twice: once with nothing staged, once over an already staged scenario.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& line : rejected) {
      const auto before = frontend.staged();
      const std::size_t pending = batcher.pending();
      std::ostringstream out;
      EXPECT_TRUE(frontend.handle_line(line, out));
      EXPECT_EQ(out.str().rfind("ERR usage", 0), 0u) << line << ": " << out.str();
      EXPECT_TRUE(frontend.staged() == before) << line;
      // No session was closed or submitted.
      EXPECT_NE(batcher.session(0), nullptr) << line;
      EXPECT_NE(batcher.session(1), nullptr) << line;
      EXPECT_EQ(batcher.pending(), pending) << line;
    }
    if (pass == 0) {
      // Nothing reached session 0: SUBMIT has nothing to send.
      std::ostringstream submit;
      EXPECT_TRUE(frontend.handle_line("SUBMIT 0", submit));
      EXPECT_EQ(submit.str(), "ERR nothing-staged\n");
      ASSERT_TRUE(frontend.handle_line("FAIL 0 3 4", setup));
      ASSERT_TRUE(frontend.handle_line("FLOW 0 1 20 1000000 0.5", setup));
      ASSERT_TRUE(frontend.handle_line("DELTA 0 5 1e9", setup));
    }
  }
  // The accepted lines staged exactly what they say.
  serve::Scenario want;
  want.fail_links = {3, 4};
  want.flows.push_back({1, 20, 1e6, 0.5});
  want.capacity_overrides.emplace_back(5, 1e9);
  ASSERT_EQ(frontend.staged().size(), 1u);
  EXPECT_TRUE(frontend.staged().at(0) == want);
}

TEST(ServeFrontend, MetricsCommandListsServeCounters) {
  auto snap = net::make_snapshot(small_topology(), minimal_cfg());
  serve::Batcher batcher(snap);
  serve::Frontend frontend(batcher);
  std::ostringstream out;
  EXPECT_TRUE(frontend.handle_line("OPEN", out));
  EXPECT_TRUE(frontend.handle_line("METRICS", out));
  EXPECT_NE(out.str().find("METRIC serve.sessions_opened"), std::string::npos);
}

// --- line parser: LineCursor == istringstream >> ---------------------------

// Seeded mutation test of the protocol's number syntax. Every line is read
// by a random sequence of word/int/double reads, once through LineCursor and
// once through the istringstream extraction it replaced, kept here as the
// reference. Results, stored values (bitwise, also on failure and including
// the sign of zero) and the sticky failure must agree on every read.
TEST(ServeFrontend, LineCursorMatchesIstringstreamOnMutatedLines) {
  const std::vector<std::string> seeds = {
      "FLOW 0 1 20 1000000 0.5", "FAIL 0 12abc 7", "DELTA 3 -17 +2.5e9",
      "FLOW +1 -2 3 4e-310 1e-400", "FLOW 1 2 3 1e400 -1e999",
      "FAIL 2147483647 2147483648 -2147483648 -2147483649",
      "FAIL 99999999999999999999999 -99999999999999999999999 007",
      "DELTA 0 1 inf nan INF NaN infinity", "FLOW 0 1 2 0x1p3 0x10",
      "DELTA 1 2 .5 -.5 5. . +. -. 1e 1e+ 1E-5 1.e5 1e5.5 1e5e5",
      "FLOW 1 2 3 4.9e-324 2.4703282292062327e-324 2.4703282292062328e-324",
      "FLOW 1 2 3 1.7976931348623157e308 1.7976931348623159e308",
      "DELTA 1 2 0.000000000000000000000000000000001e-300 "
      "100000000000000000000000000000000000000e300",
      "FAIL\t1\r2\v3\f4 5\n6", "SUBMIT ++1 +-1 -+1 --1 - + 1",
      "DELTA 1 2 -1e-400 -0 -0.0 +0e999 -4.9e-324",
      // Out of range on the other side of the exponent's sign.
      "DELTA 1 2 1" + std::string(330, '0') + "e-10 0." +
          std::string(340, '0') + "1e10",
      "  ", "", "RUN", "QUIT 0"};
  const std::string alphabet = "0123456789+-.eE xaifnN\t\r";
  sim::Rng rng(20261018);
  constexpr int kLines = 20000;
  int reads = 0;
  for (int n = 0; n < kLines; ++n) {
    std::string line = seeds[rng.index(seeds.size())];
    const int edits = static_cast<int>(rng.index(6));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = line.empty() ? 0 : rng.index(line.size() + 1);
      const char c = alphabet[rng.index(alphabet.size())];
      switch (rng.index(3)) {
        case 0:
          line.insert(at, 1, c);
          break;
        case 1:
          if (at < line.size()) line.erase(at, 1);
          break;
        default:
          if (at < line.size()) line[at] = c;
      }
    }
    serve::LineCursor cur(line);
    std::istringstream ref(line);
    const int n_reads = 1 + static_cast<int>(rng.index(8));
    for (int r = 0; r < n_reads; ++r, ++reads) {
      const auto kind = rng.index(3);
      if (kind == 0) {
        std::string_view w;
        std::string wr;
        const bool ok = cur.word(w);
        const bool ok_ref = static_cast<bool>(ref >> wr);
        ASSERT_EQ(ok, ok_ref) << "word read " << r << " of '" << line << "'";
        if (ok) ASSERT_EQ(std::string(w), wr) << line;
      } else if (kind == 1) {
        int v = -777, v_ref = -777;
        const bool ok = cur.number(v);
        const bool ok_ref = static_cast<bool>(ref >> v_ref);
        ASSERT_EQ(ok, ok_ref) << "int read " << r << " of '" << line << "'";
        ASSERT_EQ(v, v_ref) << "int read " << r << " of '" << line << "'";
      } else {
        double v = -777.5, v_ref = -777.5;
        const bool ok = cur.number(v);
        const bool ok_ref = static_cast<bool>(ref >> v_ref);
        ASSERT_EQ(ok, ok_ref) << "double read " << r << " of '" << line
                              << "'";
        ASSERT_EQ(std::memcmp(&v, &v_ref, sizeof v), 0)
            << "double read " << r << " of '" << line << "': " << v
            << " vs " << v_ref;
      }
    }
  }
  EXPECT_GT(reads, kLines);
}

}  // namespace
