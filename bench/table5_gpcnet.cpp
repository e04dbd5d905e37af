// Table 5 — GPCNeT on 9,400 nodes: isolated vs congested at 8 PPN (ideal,
// impact 1.0x), the 32 PPN degradation (§4.2.2), and a congestion-control
// ablation showing what Slingshot's CC buys.
#include <algorithm>
#include <cstdio>

#include "core/xscale.hpp"

using namespace xscale;

namespace {

void print_result(const char* title, const mpi::GpcnetResult& r) {
  std::printf("%s\n", title);
  sim::Table t("isolated vs congested");
  t.header({"Name", "Iso Avg", "Iso 99%", "Cong Avg", "Cong 99%", "Impact", "Units"});
  for (std::size_t i = 0; i < r.isolated.size(); ++i) {
    t.row({r.isolated[i].name, sim::Table::num(r.isolated[i].average, 5),
           sim::Table::num(r.isolated[i].p99, 5),
           sim::Table::num(r.congested[i].average, 5),
           sim::Table::num(r.congested[i].p99, 5),
           sim::Table::num(r.impact[i], 3) + "x", r.isolated[i].units});
  }
  t.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  xscale::obs::BenchObs obs(argc, argv);  // shared flags: --trace <file>, --metrics
  std::printf("== Reproducing Table 5: GPCNeT on 9,400 nodes ==\n\n");
  const auto m = machines::frontier();
  auto fabric = m.build_fabric();

  mpi::GpcnetConfig cfg;
  if (obs::quick()) {
    // Golden harness: a smaller rank count and fewer latency samples keep
    // the same three tables at a fraction of the solve time.
    cfg.nodes = 1200;
    cfg.latency_samples = 512;
  }
  cfg.ppn = 8;
  auto r8 = mpi::run_gpcnet(m, fabric, cfg);
  print_result("--- 8 PPN (paper's Table 5: congested == isolated) ---", r8);
  std::printf("Paper: Lat 2.6/4.8 us, BW 3497/2514 MiB/s/rank, Allreduce 51.5/54.1 us;\n"
              "impact 1.0x on every metric.\n\n");

  cfg.ppn = 32;
  auto r32 = mpi::run_gpcnet(m, fabric, cfg);
  print_result("--- 32 PPN (paper: 1.2-1.6x avg, 1.8-7.6x tail degradation) ---", r32);

  // Ablation: what the results would look like without hardware congestion
  // control (head-of-line blocking couples victims to congestor trees).
  auto nocc_cfg = m.fabric_defaults;
  nocc_cfg.congestion_control = false;
  auto nocc_fabric = m.build_fabric(nocc_cfg);
  cfg.ppn = 8;
  auto rn = mpi::run_gpcnet(m, nocc_fabric, cfg);
  print_result("--- Ablation: congestion control disabled, 8 PPN ---", rn);
  std::printf("Without CC the victim bandwidth impact factor is %.1fx — the\n"
              "qualitative gap the paper attributes to Slingshot's congestion\n"
              "control vs Summit's EDR InfiniBand.\n",
              rn.impact[1]);

  // Cross-machine comparison (ISSUE 9): the same congestor suite on Summit
  // (non-blocking fat-tree, no Slingshot-class CC) and Aurora (Slingshot
  // dragonfly, 8 NICs/node) — the three-point spread the cross-topology
  // chapter in EXPERIMENTS.md tabulates. Each machine runs the job at most
  // at its own size (Summit has 4,600 compute nodes, not 9,400).
  cfg.ppn = 8;
  const auto summit = machines::summit();
  auto sfab = summit.build_fabric();
  auto scfg = cfg;
  scfg.nodes = std::min(cfg.nodes, summit.compute_nodes);
  auto rs = mpi::run_gpcnet(summit, sfab, scfg);
  print_result("--- Cross-machine: Summit, 8 PPN ---", rs);

  const auto aurora = machines::aurora();
  auto afab = aurora.build_fabric();
  auto acfg = cfg;
  acfg.nodes = std::min(cfg.nodes, aurora.compute_nodes);
  auto ra = mpi::run_gpcnet(aurora, afab, acfg);
  print_result("--- Cross-machine: Aurora, 8 PPN ---", ra);
  return 0;
}
