#!/usr/bin/env python3
"""Perf regression gate over BENCH_flowsim.json snapshots (ISSUE 6).

Compares a freshly recorded snapshot (scripts/record_bench.sh --out ...)
against the committed baseline. CI machines differ wildly in absolute
speed, so the gate is built from two machine-robust layers:

1. Structural invariants checked on the *current* snapshot alone —
   properties that hold regardless of hardware:
     - steady-state incremental re-solves allocate nothing
       (allocs/resolve == 0, the ISSUE 5 contract);
     - incast churn rides the whole-set path (warm% floored);
     - incast_incremental beats incast_full at 1,024 endpoints and stays
       within 2x of permutation_incremental (the acceptance ratios — both
       are same-machine, same-run ratios, so they transfer to any host);
     - steady-window churn allocations stay at ~0 per op on incremental
       rows.

2. Cross-snapshot per-benchmark regression, normalised for machine speed:
   the median current/baseline throughput ratio across all shared
   benchmarks estimates the host-speed factor; any single benchmark whose
   ratio falls below `tolerance * median` regressed relative to its peers
   and fails the gate. A uniformly slower CI runner moves the median, not
   the verdict.

Exit code 0 = pass, 1 = regression/invariant failure, 2 = usage error.
"""
import argparse
import json
import statistics
import sys

CHURN = "micro_flowsim/BM_FlowChurn"
SERVE = "micro_serve/BM_ServeBatch"


def load(path):
    with open(path) as f:
        return json.load(f)


def bench_map(snapshot):
    return snapshot.get("benchmarks", {})


def fail(errors, msg):
    errors.append(msg)
    print(f"FAIL: {msg}")


def check_structural(cur, errors):
    # Near-zero-allocation steady state: short --quick windows still carry a
    # decaying amortized residual from grow-only arenas discovering late
    # occupancy maxima (EXPERIMENTS.md documents < 0.02/resolve under
    # all-to-all), so gate on a small bound rather than an exact zero.
    for name, entry in sorted(cur.items()):
        if "BM_SteadyResolve" in name and "allocs/resolve" in entry:
            if entry["allocs/resolve"] > 0.05:
                fail(errors,
                     f"{name}: allocs/resolve = {entry['allocs/resolve']} "
                     "(steady-state re-solves must stay allocation-free)")

    # Steady-window allocations (ISSUE 10): the whole-run allocs/op counter
    # legitimately carries the cold start (engine, simulator, first-touch
    # arena growth), but the steady_allocs/op companion is measured strictly
    # inside the replacement-sustained churn window against warm arenas and
    # must sit at ~0 on every incremental row — the per-row restatement of
    # the BM_SteadyResolve bound above. Absent on legacy snapshots. The bound
    # is 0.1, not 0: small all-to-all rows keep visiting brand-new (src, dst)
    # pairs deep into the window (the pair universe n(n-1) dwarfs the visit
    # count at n <= 1024), so incidence-list first-touch growth leaks a
    # few hundredths per op there — measured 0.04-0.07 at 64-1024, <= 0.01
    # at 9,408+ where the pair universe saturates. A genuine per-resolve
    # allocation would show as ~1.0/op, an order of magnitude above the bound.
    for name, entry in sorted(cur.items()):
        if name.startswith(CHURN + "/") and "_incremental/" in name:
            sa = entry.get("steady_allocs/op")
            if sa is not None and sa > 0.1:
                fail(errors,
                     f"{name}: steady_allocs/op = {sa} (> 0.1; steady-state "
                     "incremental churn must not allocate)")

    # Whole-set path engaged on incast: it must carry most of the
    # load where the component spans the active set.
    for n in (1024, 4096, 9408):
        name = f"{CHURN}/incast_incremental/{n}"
        entry = cur.get(name)
        if entry is None:
            continue  # --quick runs may trim args; gate what's present
        warm = entry.get("warm%", 0.0)
        if warm < 50.0:
            fail(errors, f"{name}: warm% = {warm} (< 50)")

    # Sub-linear write-back (ISSUE 8): steady-state incast churn applies only
    # the changed rates. One churn item perturbs the shared bottleneck's
    # uniform rate, and same-instant segments coalesce, so the applied share
    # of all write-back decisions stays tiny; an eager whole-set write (the
    # regression this guards) drives writeback% toward 100 * applied /
    # (applied + skipped) ~ 50+ immediately.
    for n in (1024, 4096, 9408):
        name = f"{CHURN}/incast_incremental/{n}"
        entry = cur.get(name)
        if entry is None:
            continue
        wb = entry.get("writeback%")
        if wb is not None and wb > 5.0:
            fail(errors,
                 f"{name}: writeback% = {wb} (> 5; incast write-back must "
                 "stay sub-linear in active flows)")

    # Rotor slot churn (ISSUE 9): the rotor churn rows must have actually
    # rotated — slot_transitions == 0 means the schedule never fired and the
    # row silently measured a frozen slot-0 fabric.
    for name, entry in sorted(cur.items()):
        if name.startswith(CHURN + "/rotor_"):
            tr = entry.get("slot_transitions")
            if tr is not None and tr <= 0:
                fail(errors,
                     f"{name}: slot_transitions = {tr} (rotor churn must "
                     "advance slots; the schedule never fired)")

    # Acceptance ratios at 1,024 endpoints — same-run, so machine-free.
    incast_inc = cur.get(f"{CHURN}/incast_incremental/1024")
    incast_full = cur.get(f"{CHURN}/incast_full/1024")
    perm_inc = cur.get(f"{CHURN}/permutation_incremental/1024")
    if incast_inc and incast_full:
        a = incast_inc.get("items_per_second", 0.0)
        b = incast_full.get("items_per_second", 0.0)
        if a <= b:
            fail(errors,
                 f"incast_incremental/1024 ({a:.0f} items/s) does not beat "
                 f"incast_full/1024 ({b:.0f} items/s)")
    if incast_inc and perm_inc:
        a = incast_inc.get("items_per_second", 0.0)
        p = perm_inc.get("items_per_second", 0.0)
        if p > 0 and a < p / 2.0:
            fail(errors,
                 f"incast_incremental/1024 ({a:.0f} items/s) is more than "
                 f"2x slower than permutation_incremental/1024 ({p:.0f})")

    # Serving-path gate (ISSUE 7): 64 concurrent overlay sessions over one
    # shared snapshot must keep at least half the single-session per-scenario
    # throughput in the same run. If cross-session invalidation creeps back in
    # (sibling epoch bumps), this same-machine ratio craters well below 0.5.
    serve_many = cur.get(f"{SERVE}/64")
    serve_one = cur.get(f"{SERVE}/1")
    if serve_many and serve_one:
        m = serve_many.get("items_per_second", 0.0)
        o = serve_one.get("items_per_second", 0.0)
        if o > 0 and m < 0.5 * o:
            fail(errors,
                 f"ServeBatch/64 ({m:.0f} scenarios/s) is below half of "
                 f"ServeBatch/1 ({o:.0f}): cross-session invalidation "
                 "suspected")


def check_regression(base, cur, tolerance, errors):
    ratios = {}
    for name, b in base.items():
        c = cur.get(name)
        if not c:
            continue
        bt, ct = b.get("items_per_second"), c.get("items_per_second")
        if bt and ct:
            ratios[name] = ct / bt
    if len(ratios) < 3:
        print(f"note: only {len(ratios)} shared benchmarks with throughput; "
              "skipping cross-snapshot regression check")
        return
    median = statistics.median(ratios.values())
    floor = tolerance * median
    print(f"host-speed factor (median current/baseline): {median:.3f}; "
          f"per-benchmark floor: {floor:.3f}")
    for name in sorted(ratios):
        r = ratios[name]
        status = "ok" if r >= floor else "REGRESSED"
        print(f"  {r:7.3f}  {status:9s}  {name}")
        if r < floor:
            fail(errors,
                 f"{name}: throughput ratio {r:.3f} below floor {floor:.3f} "
                 f"(regressed vs peers; tolerance {tolerance})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="BENCH_flowsim.json",
                    help="committed snapshot (default: BENCH_flowsim.json)")
    ap.add_argument("--current", required=True,
                    help="freshly recorded snapshot to gate")
    ap.add_argument("--tolerance", type=float, default=0.6,
                    help="per-benchmark floor as a fraction of the median "
                         "host-speed ratio (default: 0.6, i.e. a benchmark "
                         "may run up to 40%% slower than its peers predict)")
    args = ap.parse_args()

    try:
        base_snap = load(args.baseline)
        cur_snap = load(args.current)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    base = bench_map(base_snap)
    cur = bench_map(cur_snap)

    # An empty shared set means the two snapshots describe different benchmark
    # suites (e.g. a rename landed without re-recording the baseline). Every
    # per-name lookup above would quietly find nothing and the gate would pass
    # while checking nothing — that is a usage error, not a pass.
    if not (set(base) & set(cur)):
        print(f"error: no benchmarks shared between baseline "
              f"'{args.baseline}' ({len(base)} benchmarks) and current "
              f"'{args.current}' ({len(cur)} benchmarks); re-record the "
              "baseline with scripts/record_bench.sh", file=sys.stderr)
        return 2

    errors = []
    check_structural(cur, errors)
    check_regression(base, cur, args.tolerance, errors)
    if errors:
        print(f"\n{len(errors)} check(s) failed")
        return 1
    print("\nall perf checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
