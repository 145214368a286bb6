"""Smoke test of the one command on tiny inputs (`all_figures quick`,
`internet:29`, `clique:8`, 50 serve requests): every workload, untraced
and traced, must pass its checks and print exactly the metrics that
BENCHMARK.json names. Builds the release binaries on first use.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return out.returncode, out.stdout, out.stderr


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, workload, trace):
        code, stdout, stderr = run(workload, trace)
        self.assertEqual(code, 0, stdout[-2000:] + stderr[-2000:])
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result["metrics"]

    def test_every_workload_untraced(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)

    def test_every_workload_traced(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 1)
                self.assertGreater(m["sim.events"]["value"], 0)
                self.assertGreater(m["dataplane.packets"]["value"], 0)
                self.assertGreater(m["runner.jobs"]["value"], 0)

    def test_refuses_to_run_outside_a_checkout(self):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "paper_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=os.path.join(ROOT, "perfbench"), capture_output=True, text=True, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
