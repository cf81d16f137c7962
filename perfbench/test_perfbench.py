"""The harness's own test, at a tiny size.

    python3 perfbench/test_perfbench.py        (from the repository root)

Checks that every metric of BENCHMARK.json is printed by name with its
unit, that the work counters repeat exactly between two traced runs of the
same seed, that times are scaled by the speed samples around them, and that
the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import REF_S, Speed  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def result(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_end_to_end_metrics_printed(self):
        expected = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--tiny")
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, expected)
                self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))

    def test_layer_metrics_printed_and_counters_repeat(self):
        expected = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(expected, {k: unit for k, (unit, _) in LAYER_METRICS.items()})
        counters = [k for k, (_, is_counter) in LAYER_METRICS.items() if is_counter]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [result("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", "1", "--tiny") for _ in range(2)]
                for res in runs:
                    self.assertTrue(res["correct"])
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                                     expected)
                first, second = ({k: res["metrics"][k]["value"] for k in counters}
                                 for res in runs)
                self.assertEqual(first, second)
                self.assertGreater(first["quadrature.integrals"], 0)

    def test_speed_factor_uses_samples_around_interval(self):
        speed = Speed()
        speed.ends = [1.0, 2.0, 3.0, 4.0, 5.0]
        speed.durations = [REF_S, REF_S, 2 * REF_S, 2 * REF_S, REF_S]
        self.assertAlmostEqual(speed.factor(), REF_S / (1.4 * REF_S))
        # samples ending in [2.5, 4.5] (the slow ones) and one on each side
        self.assertAlmostEqual(speed.local_factor(2.5, 4.5), REF_S / (1.5 * REF_S))
        self.assertAlmostEqual(speed.local_factor(2.5, 4.5, extra=0), 0.5)

    def test_refuses_without_program(self):
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold_sum",
                                   "--seed", "0", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
