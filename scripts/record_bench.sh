#!/usr/bin/env bash
# Record the solver/engine perf trajectory: run the micro benchmarks
# (micro_flowsim, micro_simcore, micro_serve) and write a trimmed snapshot to
# BENCH_flowsim.json at the repo root, so later PRs can diff ops/s and the
# allocations-per-resolve counter against this one.
#
# The allocation numbers come from the interposed counting allocator inside
# bench/micro_flowsim.cpp (global operator new/delete overrides), measured
# against warm state by BM_SteadyResolve — the steady-state incremental
# re-solve must report 0.
#
# Usage: scripts/record_bench.sh [build-dir] [--quick] [--out FILE]
#   build-dir: CMake build tree with the benches built (default: build)
#   --quick:   short min_time (0.1s) for smoke runs, and skip the
#              multi-Frontier rows (>= 18,944 endpoints, minutes each);
#              default is 0.5s with every row. Record the committed
#              baseline with --quick too: CI gates a --quick run, and in a
#              full run the multi-Frontier rows leave the allocator warm,
#              so later rows read up to ~1.6x faster than CI will see.
#   --out:     write the snapshot to FILE instead of BENCH_flowsim.json
#              (CI records a fresh snapshot here and diffs it against the
#              committed one with scripts/check_bench.py)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="build"
MIN_TIME="0.5"
# --quick drops the multi-Frontier churn rows (a 94k-endpoint fabric build
# alone is tens of seconds); the full recording keeps everything.
FILTER="all"
OUT="BENCH_flowsim.json"
expect_out=0
for arg in "$@"; do
  if [[ "$expect_out" == 1 ]]; then
    OUT="$arg"; expect_out=0; continue
  fi
  case "$arg" in
    --quick) MIN_TIME="0.1"; FILTER='-/(18944|37888|94720)$' ;;
    --out) expect_out=1 ;;
    *) BUILD="$arg" ;;
  esac
done
if [[ "$expect_out" == 1 ]]; then
  echo "error: --out requires a file argument" >&2
  exit 1
fi
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

for bench in micro_flowsim micro_simcore micro_serve; do
  bin="$BUILD/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $BUILD --target $bench)" >&2
    exit 1
  fi
  echo "== $bench =="
  XSCALE_THREADS="${XSCALE_THREADS:-1}" "$bin" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_filter="$FILTER" \
    --benchmark_out="$TMP/$bench.json" --benchmark_out_format=json
done

# Merge, keeping only the fields worth diffing across PRs.
python3 - "$TMP" "$OUT" <<'PY'
import json, os, subprocess, sys
tmp, out = sys.argv[1], sys.argv[2]

def rev():
    try:
        # "-dirty" marks a recording of uncommitted changes on top of HEAD.
        return subprocess.check_output(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            text=True).strip()
    except Exception:
        return "unknown"

# google-benchmark reports real_time in the row's time_unit.
MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

snapshot = {"git": rev(), "benchmarks": {}}
for name in ("micro_flowsim", "micro_simcore", "micro_serve"):
    with open(f"{tmp}/{name}.json") as f:
        data = json.load(f)
    if "context" not in snapshot:
        ctx = data.get("context", {})
        snapshot["context"] = {
            "date": ctx.get("date"),
            "num_cpus": ctx.get("num_cpus"),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            "library_build_type": ctx.get("library_build_type"),
            "build_type": ctx.get("build_type"),
            "scan_kernel": ctx.get("scan_kernel"),
            "xscale_threads": os.environ.get("XSCALE_THREADS", "1"),
        }
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {"real_time_ms": round(
            b["real_time"] * MS_PER_UNIT[b.get("time_unit", "ns")], 3)}
        for k in ("items_per_second", "allocs/resolve", "allocs/op",
                  "steady_allocs/op",
                  "comp_avg", "warm%", "frontier_avg",
                  "threads", "heap", "stale",
                  "epochs_max", "reroutes",
                  "slot_transitions",
                  "writeback%", "topo_build_ms", "levels"):
            if k in b:
                entry[k] = round(b[k], 6)
        snapshot["benchmarks"][f"{name}/{b['name']}"] = entry

with open(out, "w") as f:
    json.dump(snapshot, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"wrote {out} ({len(snapshot['benchmarks'])} benchmarks)")
PY
