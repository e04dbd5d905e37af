#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/test_determinism.py

For each workload: two short traced runs with the same seed give identical
per-layer counts and an identical output digest, with no failed op; a run
with another seed gives a different digest, so the seed reaches the
generated inputs.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

OPS = 6
OUT = os.path.join(run.BUILD, "selftest")


def short_run(workload, seed, tag):
    report = os.path.join(OUT, f"{workload}-{tag}.json")
    subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--min-ops", "0",
         "--count-ops", str(OPS), "--setups", "1", "--report", report],
        env=dict(os.environ, XSCALE_THREADS="1"), check=True, timeout=300)
    with open(report) as f:
        return json.load(f)


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(OUT, exist_ok=True)

    def check_workload(self, workload):
        a = short_run(workload, 11, "a")
        b = short_run(workload, 11, "b")
        c = short_run(workload, 12, "c")
        for r in (a, b, c):
            self.assertEqual(r["failures"], [])
            self.assertEqual(r["count_ops"], OPS)
        self.assertTrue(a["counts"])
        self.assertEqual(a["counts"], b["counts"])
        self.assertEqual(a["digest"], b["digest"])
        self.assertNotEqual(a["digest"], c["digest"])

    def test_serve_whatif(self):
        self.check_workload("serve_whatif")

    def test_checkpoint_io(self):
        self.check_workload("checkpoint_io")

    def test_apps_jobmix(self):
        self.check_workload("apps_jobmix")


if __name__ == "__main__":
    unittest.main()
