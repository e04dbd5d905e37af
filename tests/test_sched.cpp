// Scheduler tests: FCFS + conservative backfill ordering, utilization
// accounting (full and truncated runs), placement policies, and allocation
// bookkeeping (ISSUE 4 satellite — these paths previously had no coverage).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "sched/slurm.hpp"
#include "sim/engine.hpp"

using namespace xscale;

namespace {

sched::JobRequest job(int nodes, double duration_s,
                      sched::Placement p = sched::Placement::Pack) {
  sched::JobRequest r;
  r.nodes = nodes;
  r.duration_s = duration_s;
  r.placement = p;
  return r;
}

}  // namespace

TEST(Scheduler, AllocateRespectsHealthAndCapacity) {
  sched::Scheduler s(16, 4);
  EXPECT_EQ(s.healthy_nodes(), 16);
  EXPECT_EQ(s.free_nodes(), 16);

  s.set_healthy(3, false);
  s.set_healthy(7, false);
  EXPECT_EQ(s.healthy_nodes(), 14);
  EXPECT_EQ(s.free_nodes(), 14);

  auto a = s.allocate(14, sched::Placement::Pack);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(static_cast<int>(a->nodes.size()), 14);
  // Unhealthy nodes must never be handed out.
  for (int n : a->nodes) {
    EXPECT_NE(n, 3);
    EXPECT_NE(n, 7);
  }
  EXPECT_EQ(s.free_nodes(), 0);

  // Nothing left: the next request must fail without side effects.
  EXPECT_FALSE(s.allocate(1, sched::Placement::Pack).has_value());
  s.release(*a);
  EXPECT_EQ(s.free_nodes(), 14);
}

TEST(Scheduler, VniAndJobIdsAreUniqueAcrossAllocations) {
  sched::Scheduler s(32, 8);
  std::set<int> job_ids;
  std::set<std::uint16_t> vnis;
  std::vector<sched::Allocation> held;
  for (int i = 0; i < 8; ++i) {
    auto a = s.allocate(4, sched::Placement::Pack);
    ASSERT_TRUE(a.has_value());
    EXPECT_TRUE(job_ids.insert(a->job_id).second) << "duplicate job id";
    EXPECT_TRUE(vnis.insert(a->vni).second) << "duplicate VNI";
    EXPECT_NE(a->vni, 0) << "VNI 0 is reserved";
    held.push_back(*a);
    if (held.size() == 4) {  // churn: release half, ids must stay fresh
      for (const auto& h : held) s.release(h);
      held.clear();
    }
  }
}

TEST(Scheduler, PackPlacementFillsFewestGroups) {
  sched::Scheduler s(64, 16);  // 4 groups of 16
  auto a = s.allocate(16, sched::Placement::Pack);
  ASSERT_TRUE(a.has_value());
  std::set<int> groups;
  for (int n : a->nodes) groups.insert(n / 16);
  EXPECT_EQ(groups.size(), 1u) << "16 nodes fit one group exactly";

  // 20 nodes can't fit one group, but must not smear over more than 2.
  auto b = s.allocate(20, sched::Placement::Pack);
  ASSERT_TRUE(b.has_value());
  groups.clear();
  for (int n : b->nodes) groups.insert(n / 16);
  EXPECT_LE(groups.size(), 2u);
}

TEST(Scheduler, SpreadPlacementTouchesAllGroups) {
  sched::Scheduler s(64, 16);  // 4 groups
  auto a = s.allocate(8, sched::Placement::Spread);
  ASSERT_TRUE(a.has_value());
  std::set<int> groups;
  for (int n : a->nodes) groups.insert(n / 16);
  EXPECT_EQ(groups.size(), 4u) << "8 nodes round-robin across 4 groups";
}

TEST(Scheduler, FcfsStartsJobsInOrderWhenAllFit) {
  sim::Engine eng;
  sched::Scheduler s(100, 25);
  auto recs = s.run_workload(eng, {job(10, 100), job(10, 100), job(10, 100)});
  ASSERT_EQ(recs.size(), 3u);
  for (const auto& r : recs) {
    EXPECT_DOUBLE_EQ(r.start_time, 0.0);
    EXPECT_DOUBLE_EQ(r.wait_time(), 0.0);
    EXPECT_DOUBLE_EQ(r.end_time, 100.0);
  }
}

TEST(Scheduler, BackfillStartsSmallJobWithoutDelayingQueueHead) {
  sim::Engine eng;
  sched::Scheduler s(100, 25);
  // A occupies 80 nodes for 100 s. B (head of the queue after A starts)
  // needs 80 and must wait for A. C needs 10 and fits in the residual 20
  // right now — it backfills at t=0.
  auto recs = s.run_workload(
      eng, {job(80, 100), job(80, 50), job(10, 30)});
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_DOUBLE_EQ(recs[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(recs[2].start_time, 0.0) << "small job should backfill";
  // The head starts exactly when A releases its nodes — the backfilled C
  // (done at t=30) never delays it.
  EXPECT_DOUBLE_EQ(recs[1].start_time, 100.0);
  EXPECT_DOUBLE_EQ(recs[1].wait_time(), 100.0);
  EXPECT_DOUBLE_EQ(recs[1].end_time, 150.0);
}

TEST(Scheduler, QueuedJobsStartAsNodesFree) {
  sim::Engine eng;
  sched::Scheduler s(10, 5);
  // Three serial 10-node jobs: each must wait for the previous to finish.
  auto recs = s.run_workload(eng, {job(10, 60), job(10, 60), job(10, 60)});
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_DOUBLE_EQ(recs[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(recs[1].start_time, 60.0);
  EXPECT_DOUBLE_EQ(recs[2].start_time, 120.0);
  EXPECT_DOUBLE_EQ(recs[2].end_time, 180.0);
}

TEST(Scheduler, UtilizationAccountsBusyNodeSeconds) {
  sim::Engine eng;
  sched::Scheduler s(100, 25);
  // 50 nodes busy for 100 s out of 100 nodes x 100 s -> exactly 0.5.
  auto recs = s.run_workload(eng, {job(50, 100)});
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_NEAR(s.last_utilization(), 0.5, 1e-12);

  // Back-to-back full-machine jobs -> 1.0.
  sim::Engine eng2;
  sched::Scheduler s2(100, 25);
  s2.run_workload(eng2, {job(100, 10), job(100, 10)});
  EXPECT_NEAR(s2.last_utilization(), 1.0, 1e-12);
}

TEST(Scheduler, TruncatedRunProRatesUtilization) {
  sim::Engine eng;
  sched::Scheduler s(100, 25);
  // The job wants 1000 s but the run is truncated at 100 s. Only the
  // node-seconds actually consumed may be credited — utilization must stay
  // in [0, 1] (this used to over-count from the requested duration).
  auto recs = s.run_workload(eng, {job(60, 1000)}, /*run_until=*/100);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_DOUBLE_EQ(recs[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(recs[0].end_time, 100.0) << "truncation time recorded";
  EXPECT_NEAR(s.last_utilization(), 0.6, 1e-12);
  EXPECT_LE(s.last_utilization(), 1.0);
  // Nodes must have been returned so the scheduler is reusable.
  EXPECT_EQ(s.free_nodes(), 100);
}

TEST(Scheduler, WaitTimesAreNonNegativeAndConsistent) {
  sim::Engine eng;
  sched::Scheduler s(40, 10);
  std::vector<sched::JobRequest> jobs;
  for (int i = 0; i < 12; ++i)
    jobs.push_back(job(5 + (i * 7) % 20, 30 + 10 * (i % 4)));
  auto recs = s.run_workload(eng, jobs);
  ASSERT_EQ(recs.size(), jobs.size());
  for (const auto& r : recs) {
    EXPECT_GE(r.start_time, r.submit_time);
    EXPECT_GE(r.end_time, r.start_time);
    EXPECT_DOUBLE_EQ(r.wait_time(), r.start_time - r.submit_time);
    EXPECT_EQ(static_cast<int>(r.nodes.size()), r.request.nodes);
  }
  EXPECT_GT(s.last_utilization(), 0.0);
  EXPECT_LE(s.last_utilization(), 1.0);
}

TEST(Scheduler, SetHealthyRejectsOutOfRangeNodeAndChangesNothing) {
  sched::Scheduler s(16, 4);
  s.set_healthy(5, false);
  for (int bad : {-1, 16, 1 << 30}) {
    EXPECT_THROW(s.set_healthy(bad, false), std::out_of_range) << bad;
    EXPECT_THROW(s.set_healthy(bad, true), std::out_of_range) << bad;
  }
  EXPECT_EQ(s.healthy_nodes(), 15);
  EXPECT_EQ(s.free_nodes(), 15);
  for (int n = 0; n < 16; ++n) EXPECT_EQ(s.is_healthy(n), n != 5) << n;
}

TEST(Scheduler, ReleaseChecksEveryNodeBeforeFreeingAny) {
  sched::Scheduler s(16, 4);
  auto a = s.allocate(6, sched::Placement::Pack);
  ASSERT_TRUE(a.has_value());
  ASSERT_EQ(s.free_nodes(), 10);
  // The bad id comes last: a release that freed as it went would have
  // returned the six good nodes before throwing.
  sched::Allocation bad = *a;
  bad.nodes.push_back(16);
  EXPECT_THROW(s.release(bad), std::out_of_range);
  bad.nodes.back() = -1;
  EXPECT_THROW(s.release(bad), std::out_of_range);
  EXPECT_EQ(s.free_nodes(), 10) << "a rejected release frees nothing";
  EXPECT_FALSE(s.allocate(11, sched::Placement::Pack).has_value());
  s.release(*a);
  EXPECT_EQ(s.free_nodes(), 16);
}

// Range checks: every bad argument throws before the scheduler changes.
TEST(Scheduler, ConstructorRejectsBadSizes) {
  EXPECT_THROW(sched::Scheduler(16, 0), std::invalid_argument);
  EXPECT_THROW(sched::Scheduler(16, -4), std::invalid_argument);
  EXPECT_THROW(sched::Scheduler(-1, 4), std::invalid_argument);
  const sched::Scheduler empty(0, 4);
  EXPECT_EQ(empty.free_nodes(), 0);
}

TEST(Scheduler, AllocateRejectsNegativeCountAndChangesNothing) {
  sched::Scheduler s(16, 4);
  for (auto p : {sched::Placement::Auto, sched::Placement::Pack,
                 sched::Placement::Spread, sched::Placement::Random}) {
    EXPECT_THROW(s.allocate(-1, p), std::invalid_argument);
    EXPECT_THROW(s.allocate(-(1 << 30), p), std::invalid_argument);
    EXPECT_FALSE(s.allocate(0, p).has_value());
  }
  EXPECT_EQ(s.free_nodes(), 16);
  // No job id or VNI was spent on a rejected request.
  const auto a = s.allocate(2);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->job_id, 1);
  EXPECT_EQ(a->vni, 1);
}

TEST(Scheduler, IsHealthyRejectsOutOfRangeNode) {
  const sched::Scheduler s(16, 4);
  for (int bad : {-1, 16, 1 << 30})
    EXPECT_THROW(static_cast<void>(s.is_healthy(bad)), std::out_of_range) << bad;
  EXPECT_TRUE(s.is_healthy(15));
}
