#!/usr/bin/env bash
# Regenerate tests/golden/*.golden from the current build.
#
# Run after an intentional model change, then review the golden diff like any
# other code change. Benches run in --quick mode (plus a full-fabric run of
# the three benches in FULL_BENCHES) with XSCALE_THREADS=1 —
# outputs are thread-count invariant by construction (see DESIGN.md §7), so
# one thread is the canonical recording configuration.
#
# Usage: scripts/update_goldens.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

BENCHES=(
  table1_system_specs table2_io_specs table4_gpu_stream table5_gpcnet
  fig3_gemm fig4_cpu_gpu_bw fig5_gcd_gcd_bw fig6_mpigraph
  sec43_storage sec44_scaling sec51_power sec54_resiliency
  table6_caar table7_ecp ablation_design
  xtopo_fat_tree xtopo_rotor
)
FULL_BENCHES=(table6_caar table7_ecp sec44_scaling)

cmake --build "$BUILD" -j --target golden_check "${BENCHES[@]}"

mkdir -p tests/golden
for b in "${BENCHES[@]}"; do
  echo "recording $b..."
  XSCALE_THREADS=1 "$BUILD/tests/golden_check" "$BUILD/bench/$b" \
    "tests/golden/$b.golden" --update -- --quick
done
# Full-fabric runs (tests/CMakeLists.txt): seconds each in a release build.
for b in "${FULL_BENCHES[@]}"; do
  echo "recording $b (full fabric)..."
  XSCALE_THREADS=1 "$BUILD/tests/golden_check" "$BUILD/bench/$b" \
    "tests/golden/$b.full.golden" --update
done
echo "done: $(ls tests/golden | wc -l) golden files"
