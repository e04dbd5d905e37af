// Tests for the simulated MPI layer and the GPCNeT reproduction.
//
// Full-machine GPCNeT runs live in bench/table5_gpcnet; the tests here use a
// reduced machine so the suite stays fast, and check invariants rather than
// absolute Table 5 numbers.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "machines/machine.hpp"
#include "mpi/comm.hpp"
#include "mpi/gpcnet.hpp"
#include "net/patterns.hpp"

namespace {

using namespace xscale;

struct Fixture {
  machines::Machine m = machines::frontier();
  // 8-group mini-Frontier to keep solves fast.
  Fixture() {
    m.topology_factory = [] {
      machines::FrontierFabricSpec spec;
      spec.compute_groups = 8;
      spec.storage_groups = 0;
      spec.management_groups = 0;
      return machines::frontier_topology(spec);
    };
    m.total_nodes = 8 * 32 * 16 / 4;  // 4 NICs per node
    m.compute_nodes = m.total_nodes;
  }
};

std::vector<int> iota_nodes(int n, int first = 0) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), first);
  return v;
}

TEST(SimComm, RankMapping) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::SimComm comm(fx.m, &fabric, iota_nodes(4), {.ppn = 8});
  EXPECT_EQ(comm.size(), 32);
  EXPECT_EQ(comm.node_of_rank(0), 0);
  EXPECT_EQ(comm.node_of_rank(8), 1);
  // 8 ranks share 4 NICs, two per NIC.
  EXPECT_EQ(comm.nic_of_rank(0), 0);
  EXPECT_EQ(comm.nic_of_rank(4), 0);
  EXPECT_EQ(comm.nic_of_rank(3), 3);
  EXPECT_EQ(comm.endpoint_of_rank(9), machines::node_endpoint(fx.m, 1, 1));
}

TEST(SimComm, RejectsNodesOutsideTheMachine) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  const std::uint64_t epoch = fabric.capacity_epoch();
  for (int bad : {-1, fx.m.total_nodes, 1 << 30})
    EXPECT_THROW(mpi::SimComm(fx.m, &fabric, {0, bad}, {.ppn = 8}),
                 std::out_of_range)
        << bad;
  EXPECT_THROW(mpi::SimComm(fx.m, nullptr, {fx.m.total_nodes}),
               std::out_of_range);
  // Nothing the constructor reads was touched: the last node is valid and
  // the fabric is as built.
  EXPECT_EQ(fabric.capacity_epoch(), epoch);
  mpi::SimComm comm(fx.m, &fabric, {0, fx.m.total_nodes - 1}, {.ppn = 8});
  EXPECT_EQ(comm.node_of_rank(8), fx.m.total_nodes - 1);
  EXPECT_GT(comm.latency(0, 8), 0.0);
}

// A rank >= size() used to read past the node list, and one in (-ppn, 0)
// truncated to node 0; every public rank entry point now rejects both.
TEST(SimComm, RejectsOutOfRangeRanks) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::SimComm comm(fx.m, &fabric, iota_nodes(2), {.ppn = 8});
  ASSERT_EQ(comm.size(), 16);
  for (int bad : {-1, -7, -8, 16, 17, 1 << 30}) {
    EXPECT_THROW(comm.node_of_rank(bad), std::out_of_range) << bad;
    EXPECT_THROW(comm.nic_of_rank(bad), std::out_of_range) << bad;
    EXPECT_THROW(comm.endpoint_of_rank(bad), std::out_of_range) << bad;
    for (const auto& [a, b] : {std::pair{bad, 0}, std::pair{0, bad}}) {
      EXPECT_THROW(comm.latency(a, b), std::out_of_range) << a << " " << b;
      EXPECT_THROW(comm.pt2pt_bandwidth(a, b), std::out_of_range)
          << a << " " << b;
      EXPECT_THROW(comm.pt2pt_time(a, b, 1e6), std::out_of_range)
          << a << " " << b;
    }
  }
  // The edges of the range still answer.
  EXPECT_EQ(comm.node_of_rank(15), 1);
  EXPECT_GT(comm.latency(0, 15), 0.0);
  EXPECT_GT(comm.pt2pt_bandwidth(15, 0), 0.0);
  // The analytic mode checks the same way.
  mpi::SimComm analytic(fx.m, nullptr, iota_nodes(2), {.ppn = 8});
  EXPECT_THROW(analytic.pt2pt_time(0, 16, 1e6), std::out_of_range);
  EXPECT_GT(analytic.pt2pt_time(0, 15, 1e6), 0.0);
}

TEST(SimComm, OnNodeLatencyBelowOffNode) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::SimComm comm(fx.m, &fabric, iota_nodes(4), {.ppn = 8});
  EXPECT_LT(comm.latency(0, 1), comm.latency(0, 8));
}

TEST(SimComm, LatencyNearGpcnetValueAcrossGroups) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  // Nodes 0 and 200 are in different dragonfly groups (128 nodes/group).
  mpi::SimComm comm(fx.m, &fabric, {0, 200}, {.ppn = 8});
  EXPECT_NEAR(comm.latency(0, 8) * 1e6, 2.6, 0.3);  // Table 5
}

TEST(SimComm, Pt2PtBandwidthIsNicLimited) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::SimComm comm(fx.m, &fabric, iota_nodes(4), {.ppn = 8});
  EXPECT_NEAR(comm.pt2pt_bandwidth(0, 8) / 1e9, 17.5, 0.1);
}

TEST(SimComm, SustainedBandwidthScalesInverselyWithPpn) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::SimComm c8(fx.m, &fabric, iota_nodes(64), {.ppn = 8});
  mpi::SimComm c32(fx.m, &fabric, iota_nodes(64), {.ppn = 32});
  EXPECT_GT(c8.sustained_per_rank_bw(), 2.0 * c32.sustained_per_rank_bw());
  EXPECT_GT(c32.sustained_per_rank_bw(), 0.0);
}

TEST(SimComm, PackedSmallJobHasLowerLatencyThanSpread) {
  // §3.4.2: Slurm packs small jobs into one group to minimize global hops.
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  std::vector<int> packed = iota_nodes(32);  // one group
  std::vector<int> spread;                   // 4 per group
  for (int g = 0; g < 8; ++g)
    for (int i = 0; i < 4; ++i) spread.push_back(g * 128 + i);
  mpi::SimComm cp(fx.m, &fabric, packed, {.ppn = 8});
  mpi::SimComm cs(fx.m, &fabric, spread, {.ppn = 8});
  EXPECT_LT(cp.avg_latency(), cs.avg_latency());
}

TEST(SimComm, SpreadingLargeJobRaisesGlobalBandwidthUnderMinimalRouting) {
  // §3.4.2: large jobs are spread across groups to maximize the number of
  // global connections available to minimal routing. The win is specifically
  // on *cross-group* flows: a packed job funnels them through few bundles.
  Fixture fx;
  auto cfg = fx.m.fabric_defaults;
  cfg.routing = net::Routing::Minimal;
  auto fabric = fx.m.build_fabric(cfg);
  std::vector<int> packed = iota_nodes(512);  // fills 4 of 8 groups
  std::vector<int> spread;                    // 64 per group
  for (int g = 0; g < 8; ++g)
    for (int i = 0; i < 64; ++i) spread.push_back(g * 128 + i);

  auto cross_group_avg = [&](const std::vector<int>& nodes) {
    sim::Rng rng(99);
    const auto& topo = fabric.topology();
    auto perm = net::random_permutation(static_cast<int>(nodes.size()), rng);
    net::PairList pairs;
    for (const auto& [i, j] : perm) {
      const int a = machines::node_endpoint(fx.m, nodes[static_cast<std::size_t>(i)], 0);
      const int b = machines::node_endpoint(fx.m, nodes[static_cast<std::size_t>(j)], 0);
      if (topo.group_of_endpoint(a) != topo.group_of_endpoint(b))
        pairs.emplace_back(a, b);
    }
    const auto rates = fabric.steady_rates(pairs);
    double s = 0;
    for (double r : rates) s += r;
    return s / static_cast<double>(rates.size());
  };
  EXPECT_GT(cross_group_avg(spread), 1.5 * cross_group_avg(packed));
}

TEST(SimComm, CollectiveTimesGrowWithMessageSize) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::SimComm comm(fx.m, &fabric, iota_nodes(16), {.ppn = 8});
  EXPECT_LT(comm.allreduce_time(8), comm.allreduce_time(1 << 20));
  EXPECT_LT(comm.allgather_time(8), comm.allgather_time(1 << 20));
  EXPECT_LT(comm.broadcast_time(8), comm.broadcast_time(1 << 20));
  EXPECT_GT(comm.alltoall_time(1024), 0.0);
  EXPECT_GT(comm.barrier_time(), 0.0);
}

TEST(SimComm, AllreduceLogScaling) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::SimComm small(fx.m, &fabric, iota_nodes(8), {.ppn = 8});
  mpi::SimComm large(fx.m, &fabric, iota_nodes(512), {.ppn = 8});
  const double r = large.allreduce_time(8) / small.allreduce_time(8);
  // 64x more ranks -> +6 stages over ~6: about 2x, certainly < 8x.
  EXPECT_GT(r, 1.2);
  EXPECT_LT(r, 8.0);
}

TEST(SimComm, HaloTimeScalesWithNeighborsAndBytes) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::SimComm comm(fx.m, &fabric, iota_nodes(64), {.ppn = 8});
  const double t6 = comm.halo_exchange_time(1 << 20, 6);
  const double t26 = comm.halo_exchange_time(1 << 20, 26);
  EXPECT_GT(t26, t6 * 2.0);
}

TEST(SimComm, AnalyticMachineWorksWithoutFabric) {
  const auto m = machines::mira();
  mpi::SimComm comm(m, nullptr, iota_nodes(1024), {.ppn = 16});
  EXPECT_GT(comm.sustained_per_rank_bw(), 0.0);
  EXPECT_GT(comm.allreduce_time(8), 0.0);
  EXPECT_GT(comm.latency(0, 64), 1e-6);
}

TEST(Gpcnet, MoreNodesThanTheMachineHasThrows) {
  const auto summit = machines::summit();
  auto fabric = summit.build_fabric();
  mpi::GpcnetConfig cfg;
  cfg.nodes = summit.compute_nodes + 1;
  EXPECT_THROW(mpi::run_gpcnet(summit, fabric, cfg), std::invalid_argument);
}

TEST(Gpcnet, CongestionControlIsolatesAt8Ppn) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::GpcnetConfig cfg;
  cfg.nodes = fx.m.total_nodes;
  cfg.ppn = 8;
  const auto r = mpi::run_gpcnet(fx.m, fabric, cfg);
  ASSERT_EQ(r.impact.size(), 3u);
  for (double i : r.impact) {
    EXPECT_GE(i, 0.99);
    EXPECT_LE(i, 1.05);  // "identical performance" (Table 5)
  }
}

TEST(Gpcnet, OversubscribedPpnDegrades) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::GpcnetConfig cfg;
  cfg.nodes = fx.m.total_nodes;
  cfg.ppn = 32;
  const auto r = mpi::run_gpcnet(fx.m, fabric, cfg);
  // §4.2.2: 1.2-1.6x average degradation at 32 PPN.
  EXPECT_GT(r.impact[0], 1.15);
  EXPECT_LT(r.impact[0], 1.8);
  EXPECT_GT(r.impact[1], 1.15);
  EXPECT_GT(r.impact[2], 1.15);
}

TEST(Gpcnet, DisablingCongestionControlHurtsVictims) {
  Fixture fx;
  auto cfg_cc = fx.m.fabric_defaults;
  cfg_cc.congestion_control = false;
  auto fabric = fx.m.build_fabric(cfg_cc);
  mpi::GpcnetConfig cfg;
  cfg.nodes = fx.m.total_nodes;
  cfg.ppn = 8;
  const auto r = mpi::run_gpcnet(fx.m, fabric, cfg);
  // Bandwidth impact must exceed the CC-on result by a wide margin.
  EXPECT_GT(r.impact[1], 1.3);
}

TEST(Gpcnet, IsolatedLatencyTailAboveAverage) {
  Fixture fx;
  auto fabric = fx.m.build_fabric();
  mpi::GpcnetConfig cfg;
  cfg.nodes = fx.m.total_nodes;
  const auto r = mpi::run_gpcnet(fx.m, fabric, cfg);
  EXPECT_GT(r.isolated[0].p99, r.isolated[0].average * 1.3);
}

}  // namespace
