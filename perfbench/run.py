#!/usr/bin/env python3
"""The xscale benchmark: builds its binary, runs one workload, prints metrics.

    python3 perfbench/run.py --workload serve_whatif --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the simulator in src/ under it) into .bench_build/,
then runs the workload with XSCALE_THREADS=1. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer ones; human-readable lines
first, then one JSON object as the last line of standard output. The
end-to-end times are host-speed corrected (README.md); the plain wall times
are printed next to them. Every result is stamped with its configuration,
and results of different configurations must not be compared. Trace output
lands in .bench_build/perfbench/trace/, result records in
.bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "xscale_perfbench")
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = ("serve_whatif", "checkpoint_io", "apps_jobmix")
# Set-ups per run; setup_s is their median.
SETUPS = 3
MIN_OPS = 100
# Op after which the per-layer counts and the output digest are taken.
COUNT_OPS = 40
# The binary stops its op loop after 120 s.
RUN_TIMEOUT_S = 160
# Host-speed correction: a time measured while the probe (HostProbe in
# harness.hpp) took p ms counts as time * PROBE_REF_MS / p, i.e. as if on a
# host where the probe takes PROBE_REF_MS, its median on an idle core of the
# 4-vCPU Xeon (model 143) the bounds were set on. Ops use the median of the
# probes of the PROBE_WINDOW ops on either side.
PROBE_REF_MS = 1.0
PROBE_WINDOW = 4

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "topo.build_ms": "ms",
    "net.snapshot_ms": "ms",
    "serve.stage_us_per_line": "us",
    "serve.run_ms_p50": "ms",
    "serve.run_ms_p90": "ms",
    "net.flowsim.resolves_per_scenario": "count",
    "net.flowsim.memo_hit_frac": "frac",
    "net.flowsim.single_hit_frac": "frac",
    "net.flowsim.warm_frac": "frac",
    "net.flowsim.flows_solved_per_resolve": "count",
    "net.route.overlay_reroutes_per_scenario": "count",
    "net.flowsim.start_us_p50": "us",
    "net.flowsim.event_us_p50": "us",
    "net.flowsim.resolves_per_completion": "count",
    "net.flowsim.component_frac": "frac",
    "net.flowsim.iters_per_resolve": "count",
    "net.flowsim.prefix_hit_frac": "frac",
    "net.flowsim.minshare_incr_frac": "frac",
    "net.flowsim.writeback_useful_frac": "frac",
    "sim.engine.scheduled_per_completion": "count",
    "sim.engine.cancelled_per_completion": "count",
    "net.route.route_us_p50": "us",
    "mpi.sustained_bw_ms": "ms",
    "mpi.avg_latency_ms": "ms",
    "net.steady_rates_ms": "ms",
    "net.solver.components_ms": "ms",
    "net.solver.iters_per_solve": "count",
    "net.route.adaptive_us_per_flow": "us",
    "net.route.cache_hit_frac": "frac",
    "sched.allocate_us": "us",
    "trace.overhead_frac": "frac",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Exits 2 when the sources
    or the toolchain are missing."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(logfile, "a") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                log(f"run.py: cannot run {cmd[0]}: {e}")
                sys.exit(2)
            if rc != 0:
                out.flush()
                with open(logfile) as f:
                    log("".join(f.readlines()[-30:]))
                log(f"run.py: build step failed: {' '.join(cmd)}")
                sys.exit(2)


def run_child(args, env, timeout):
    """Runs the benchmark binary to completion; returns (exit code, peak RSS in
    MB). The process is killed and reaped if it outlives `timeout` seconds."""
    proc = subprocess.Popen(args, env=env, stdout=sys.stderr)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = -9
            log(f"run.py: {args[2]} timed out after {timeout} s")
            return -9, 0.0
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def source_digest():
    """sha256 over src/ and perfbench/: names the measured code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for d, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def percentile(values, q):
    """Inclusive-method percentile (q in 0..100) over a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def corrected_ops(ops):
    """Per op: (host-corrected ms, work)."""
    probes = [o[3] for o in ops]
    out = []
    for i, o in enumerate(ops):
        near = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        out.append((o[0] * PROBE_REF_MS / statistics.median(near), o[1]))
    return out


def end_to_end(report, rss_mb, correct):
    """The end-to-end metrics; times host-corrected when `correct`, else
    plain wall time."""
    if correct:
        ops = corrected_ops(report["ops"])
        setups = [s * PROBE_REF_MS / p for s, p in report["setups"]]
    else:
        ops = [(o[0], o[1]) for o in report["ops"]]
        setups = [s for s, _ in report["setups"]]
    ms = [t for t, _ in ops]
    rates = [w / (t * 1e-3) for t, w in ops if t > 0]
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": percentile(ms, 90),
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": rss_mb,
    }


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def self_time_table(spans):
    """Per span name: calls, total and self time (span time minus the time
    its direct children cover; children never overlap in a one-thread run)."""
    child = [0] * len(spans)
    for name, op, parent, start, end, items in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for i, (name, op, parent, start, end, items) in enumerate(spans):
        row = table.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return table


def per_layer(report, spans):
    by_name = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def durs(name, scale):
        return [(s[4] - s[3]) * scale for s in by_name.get(name, [])]

    def med(values):
        return statistics.median(values) if values else 0.0

    m = {k: 0.0 for k in PER_LAYER}
    m["topo.build_ms"] = report["setup"]["topo_ms"]
    m["net.snapshot_ms"] = report["setup"]["snapshot_ms"]
    m.update({k: v for k, v in report["counts"].items() if k in m})

    # serve: mean staging time per line within each op, median over ops.
    per_op = {}
    for s in by_name.get("serve.stage", []):
        acc = per_op.setdefault(s[1], [0, 0])
        acc[0] += (s[4] - s[3]) * 1e-3
        acc[1] += 1
    m["serve.stage_us_per_line"] = med([t / n for t, n in per_op.values()])
    run_ms = durs("serve.run", 1e-6)
    m["serve.run_ms_p50"] = med(run_ms)
    m["serve.run_ms_p90"] = percentile(run_ms, 90) if run_ms else 0.0

    m["net.flowsim.start_us_p50"] = med(durs("net.flowsim.start", 1e-3))
    m["net.flowsim.event_us_p50"] = med(durs("net.flowsim.event", 1e-3))
    m["net.route.route_us_p50"] = med(durs("net.route.route_into", 1e-3))

    m["mpi.sustained_bw_ms"] = med(durs("mpi.sustained_per_rank_bw", 1e-6))
    m["mpi.avg_latency_ms"] = med(durs("mpi.avg_latency", 1e-6))
    m["net.steady_rates_ms"] = med(durs("net.steady_rates", 1e-6))
    m["net.solver.components_ms"] = med(durs("net.solver.components", 1e-6))
    m["net.route.adaptive_us_per_flow"] = med(
        [(s[4] - s[3]) * 1e-3 / s[5] for s in by_name.get("net.route.adaptive", [])])
    m["sched.allocate_us"] = med(durs("sched.allocate", 1e-3))

    traced = [o[0] for o in report["ops"] if o[2]]
    plain = [o[0] for o in report["ops"] if not o[2]]
    if traced and plain:
        m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    out_dir = os.path.join(BUILD, "trace" if a.trace else "untraced")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    report_path = os.path.join(out_dir, a.workload + ".report.json")
    spans_path = os.path.join(out_dir, a.workload + ".spans.jsonl")
    env = dict(os.environ, XSCALE_THREADS="1")

    t0 = time.time_ns()
    rc, rss_mb = run_child([
        BINARY, "--workload", a.workload, "--seed", str(a.seed),
        "--count-ops", str(COUNT_OPS), "--setups", str(SETUPS),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--min-ops", str(MIN_OPS), "--report", report_path,
        "--spans", spans_path, "--t0-ns", str(t0)], env, RUN_TIMEOUT_S)
    if rc != 0:
        log(f"run.py: {a.workload} exited with {rc}")
        sys.exit(1)
    with open(report_path) as f:
        report = json.load(f)

    attempted = len(report["ops"])
    failed_ops = {op for op, _ in report["failures"]}
    for op, what in report["failures"][:10]:
        log(f"run.py: {a.workload} op {op} failed: {what}")
    correct = (not failed_ops and attempted >= 1
               and (a.trace or attempted >= MIN_OPS))

    config = dict(report["config"], commit=commit(), source=source_digest(),
                  xscale_threads=env["XSCALE_THREADS"], nproc=os.cpu_count())
    print(f"config: {json.dumps(config, sort_keys=True)}")
    if a.trace:
        spans = read_spans(spans_path)
        metrics = per_layer(report, spans)
        units = PER_LAYER
        table = f"{'span':32} {'calls':>8} {'total_ms':>12} {'self_ms':>12}\n"
        rows = sorted(self_time_table(spans).items(), key=lambda kv: -kv[1][2])
        for name, (calls, total, own) in rows:
            table += f"{name:32} {calls:8d} {total * 1e-6:12.3f} {own * 1e-6:12.3f}\n"
        with open(os.path.join(out_dir, a.workload + ".layers.txt"), "w") as f:
            f.write(table)
        print(table, end="")
        print(f"trace: {spans_path}, per-op counts after op {report['count_ops']}, "
              f"digest {report['digest']}")
    else:
        metrics = end_to_end(report, rss_mb, correct=True)
        wall = end_to_end(report, rss_mb, correct=False)
        units = END_TO_END
    fail_frac = len(failed_ops) / max(1, attempted)
    for name, unit in units.items():
        line = f"{a.workload} {name} = {metrics[name]:.6g} {unit}"
        if not a.trace and name != "peak_rss_mb":
            line += f" (wall {wall[name]:.6g} {unit})"
        print(line)
    if not a.trace:
        print(f"{a.workload} host probe: median {statistics.median(o[3] for o in report['ops']):.4g} ms "
              f"after ops, reference {PROBE_REF_MS} ms")
    phases = report["setup"]
    print(f"{a.workload} setup phases of the last set-up: topology "
          f"{phases['topo_ms']:.1f} ms, snapshot {phases['snapshot_ms']:.1f} ms, "
          f"sessions {phases['open_ms']:.1f} ms, warm-up {phases['warmup_ms']:.1f} ms")
    print(f"{a.workload} fail_frac = {fail_frac:.6g} (failed {len(failed_ops)} "
          f"of {attempted} ops)")

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=a.workload, seed=a.seed, trace=a.trace,
                  seconds=a.seconds, config=config, setups=report["setups"],
                  digest=report["digest"], fail_frac=fail_frac)
    if not a.trace:
        record["wall"] = wall
    record_path = os.path.join(BUILD, "results",
                               f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
