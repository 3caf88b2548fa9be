#!/usr/bin/env python3
"""Self-tests of the octgb benchmark, on reduced-size runs of each workload.

    python3 perfbench/test_perfbench.py

- every metric BENCHMARK.json declares is emitted, with its unit and a
  finite value (end-to-end metrics also nonzero), and no other metric;
- two traced runs with the same seed report identical work, plan, session,
  tree and message counts (the exact-count witness);
- without the library sources the benchmark exits non-zero and prints no
  result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["zdock_cold", "md_refit", "dock_screen", "hybrid_cmv"]
# Counts that depend only on the seed, never on timing or scheduling.
EXACT = [
    "surface.points", "octree.nodes", "octree.rebuilds",
    "plan.builds", "plan.replays", "plan.born_reuses",
    "plan.invalidated_drift", "plan.invalidated_topology", "plan.reuse_ratio",
    "born.exact", "born.approx", "born.visits", "born.bytes_computed",
    "epol.exact", "epol.bins", "epol.visits", "epol.bytes_computed",
    "mpp.bytes", "mpp.messages", "session.refits", "session.rebuilds",
    "trace.ops",
]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return units("end_to_end"), units("per_layer")


def bench(workload, trace, seed=7):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]), out.stderr


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.e2e, cls.layers = declared()

    def check_metrics(self, result, units, nonzero):
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)
            if nonzero:
                self.assertNotEqual(m["value"], 0.0, name)

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, err = bench(w, trace=0)
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, self.e2e, nonzero=True)

    def test_traced_counts_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code1, first, err1 = bench(w, trace=1)
                code2, second, err2 = bench(w, trace=1)
                self.assertEqual((code1, code2), (0, 0), err1 + err2)
                self.check_metrics(first, self.layers, nonzero=False)
                for name in EXACT:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_fails_without_sources(self):
        bare = os.path.join(run.BUILD, "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "md_refit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
