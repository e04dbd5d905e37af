#!/usr/bin/env python3
"""Driver checks for scripts/check_bench.py (ISSUE 7 satellite).

Regression under test: a fully renamed benchmark suite used to sail through
the gate — every per-name lookup found nothing, the cross-snapshot check
printed a note and skipped, and the script exited 0 having checked nothing.
The empty shared set must instead be a clean exit-code-2 usage error.

Stdlib-only (unittest + subprocess); registered with ctest so it runs in CI
alongside the C++ suites.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "check_bench.py")


def snapshot(benchmarks):
    return {"git": "test", "benchmarks": benchmarks}


def entry(items_per_second, **extra):
    e = {"real_time_ms": 1.0, "items_per_second": items_per_second}
    e.update(extra)
    return e


class CheckBenchDriver(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, snap):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            json.dump(snap, f)
        return path

    def run_gate(self, baseline, current):
        return subprocess.run(
            [sys.executable, CHECK, "--baseline", baseline,
             "--current", current],
            capture_output=True, text=True)

    def healthy(self):
        # Four shared benchmarks, structural invariants satisfied.
        return {
            "micro_flowsim/BM_SteadyResolve/1024":
                entry(5e5, **{"allocs/resolve": 0.0}),
            "micro_flowsim/BM_FlowChurn/incast_incremental/1024":
                entry(2e4, **{"warm%": 95.0, "writeback%": 0.2}),
            "micro_flowsim/BM_FlowChurn/incast_full/1024": entry(1e3),
            "micro_flowsim/BM_FlowChurn/permutation_incremental/1024":
                entry(3e4),
        }

    def test_identical_snapshots_pass(self):
        path = self.write("same.json", snapshot(self.healthy()))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_renamed_suite_is_usage_error_not_silent_pass(self):
        base = self.write("base.json", snapshot(self.healthy()))
        renamed = {"micro_flowsim/BM_Renamed/" + k.split("/", 2)[-1]: v
                   for k, v in self.healthy().items()}
        cur = self.write("cur.json", snapshot(renamed))
        r = self.run_gate(base, cur)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("no benchmarks shared", r.stderr)

    def test_empty_current_is_usage_error(self):
        base = self.write("base.json", snapshot(self.healthy()))
        cur = self.write("cur.json", snapshot({}))
        r = self.run_gate(base, cur)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    def test_missing_file_is_usage_error(self):
        base = self.write("base.json", snapshot(self.healthy()))
        r = self.run_gate(base, os.path.join(self._dir.name, "absent.json"))
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    def test_missing_baseline_row_fails(self):
        # A row dropped from (or renamed in) the current recording used to
        # leave the gate silently; only the multi-Frontier rows that
        # `record_bench.sh --quick` skips may be absent.
        base = self.healthy()
        base["micro_flowsim/BM_FlowChurn/incast_incremental/94720"] = \
            entry(5.0, **{"warm%": 95.0})
        base["micro_flowsim/BM_FlowChurnWholeSet/37888"] = entry(0.1)
        base_path = self.write("base.json", snapshot(base))
        quick = self.write("quick.json", snapshot(self.healthy()))
        r = self.run_gate(base_path, quick)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

        dropped = self.healthy()
        del dropped["micro_flowsim/BM_FlowChurn/incast_full/1024"]
        cur = self.write("dropped.json", snapshot(dropped))
        r = self.run_gate(base_path, cur)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("incast_full/1024: in the baseline but missing",
                      r.stdout)

    def test_single_benchmark_regression_fails(self):
        base = self.write("base.json", snapshot(self.healthy()))
        slow = self.healthy()
        slow["micro_flowsim/BM_FlowChurn/incast_full/1024"] = entry(1e2)
        cur = self.write("cur.json", snapshot(slow))
        r = self.run_gate(base, cur)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSED", r.stdout)

    def test_structural_failure_fails_even_without_regression(self):
        leaky = self.healthy()
        leaky["micro_flowsim/BM_SteadyResolve/1024"] = \
            entry(5e5, **{"allocs/resolve": 3.0})
        path = self.write("leaky.json", snapshot(leaky))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_serve_ratio_gate(self):
        ok = self.healthy()
        ok["micro_serve/BM_ServeBatch/1"] = entry(1000.0)
        ok["micro_serve/BM_ServeBatch/64"] = entry(600.0)
        path = self.write("serve_ok.json", snapshot(ok))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

        bad = dict(ok)
        bad["micro_serve/BM_ServeBatch/64"] = entry(400.0)
        path = self.write("serve_bad.json", snapshot(bad))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("cross-session invalidation", r.stdout)

    def test_writeback_sublinear_gate(self):
        # ISSUE 8: an eager whole-set write on incast churn shows up as a
        # large applied share; the gate must fail loudly, not drift.
        eager = self.healthy()
        eager["micro_flowsim/BM_FlowChurn/incast_incremental/1024"] = \
            entry(2e4, **{"warm%": 95.0, "writeback%": 49.7})
        path = self.write("wb_eager.json", snapshot(eager))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("writeback%", r.stdout)
        self.assertIn("sub-linear", r.stdout)

        # Snapshots without the column (older baselines) are not gated.
        legacy = self.healthy()
        del legacy[
            "micro_flowsim/BM_FlowChurn/incast_incremental/1024"]["writeback%"]
        path = self.write("wb_legacy.json", snapshot(legacy))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_rotor_slot_churn_gates(self):
        # ISSUE 9: a rotor churn row whose schedule never fired (frozen
        # slot-0 fabric) must fail.
        def rotor_entry(transitions):
            return entry(2e4, **{"warm%": 60.0,
                                 "slot_transitions": transitions})

        ok = self.healthy()
        ok["micro_flowsim/BM_FlowChurn/rotor_permutation_incremental/64"] = \
            rotor_entry(1159.0)
        path = self.write("rotor_ok.json", snapshot(ok))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

        frozen = self.healthy()
        frozen["micro_flowsim/BM_FlowChurn/rotor_permutation_incremental/64"] \
            = rotor_entry(0.0)
        path = self.write("rotor_frozen.json", snapshot(frozen))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("slot_transitions", r.stdout)

    def test_steady_alloc_gate(self):
        # ISSUE 10: the steady-window allocation counter on incremental churn
        # rows must stay at ~0; a per-resolve allocation creeping back into
        # the warm path shows up here long before allocs/op moves.
        leaky = self.healthy()
        leaky["micro_flowsim/BM_FlowChurn/permutation_incremental/1024"] = \
            entry(3e4, **{"steady_allocs/op": 0.8})
        path = self.write("steady_leaky.json", snapshot(leaky))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("steady_allocs/op", r.stdout)

        # Legacy snapshots without the column are not gated.
        path = self.write("steady_legacy.json", snapshot(self.healthy()))
        r = self.run_gate(path, path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_levels_must_match_baseline(self):
        # The levels a solve takes are host-independent: a row whose count
        # moved changed the solve, however fast it ran.
        row = "micro_simcore/BM_SteadyRatesContiguous/1024"
        base = self.healthy()
        base[row] = entry(1e6, levels=883.0)
        base_path = self.write("levels_base.json", snapshot(base))
        r = self.run_gate(base_path, base_path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

        moved = self.healthy()
        moved[row] = entry(1e6, levels=884.0)
        cur = self.write("levels_moved.json", snapshot(moved))
        r = self.run_gate(base_path, cur)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("levels = 884.0, baseline 883.0", r.stdout)

        # A baseline without the column (recorded before it) is not gated.
        legacy = self.write("levels_legacy.json", snapshot(
            dict(self.healthy(), **{row: entry(1e6)})))
        r = self.run_gate(legacy, cur)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
