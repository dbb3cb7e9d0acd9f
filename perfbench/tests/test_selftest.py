#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/tests/test_selftest.py

Runs every workload of BENCHMARK.json with --tiny, untraced and traced, and
checks that the last output line is the result object, that it names every
metric of the mode with its unit, and that the pinned counters match. Then
corrupts one pinned counter per workload kind and checks that the
correctness check fails the run. Also unit-tests the span self-time
summary, the percentile and the fingerprint comparison.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402

RUN = os.path.join(BENCH_DIR, "run.py")


def run_bench(workload, trace, expect=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--tiny",
           "--seconds", "1", "--trace", str(trace)]
    if expect:
        cmd += ["--expect", expect]
    proc = subprocess.run(cmd, cwd=common.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()[-1], proc.stderr


class Output(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        bench = common.load_benchmark()
        for w in bench["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    rc, last, err = run_bench(w["name"], trace)
                    self.assertEqual(rc, 0, err)
                    result = json.loads(last)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in bench[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    for m in (bench["end_to_end"] if trace == 0 else []):
                        self.assertGreater(result["metrics"][m["name"]]
                                           ["value"], 0, m["name"])


class Correctness(unittest.TestCase):
    def corrupted(self, mutate):
        with open(os.path.join(BENCH_DIR, "expected.json")) as f:
            pins = json.load(f)
        pins = copy.deepcopy(pins)
        mutate(pins["tiny"])
        path = os.path.join(common.build_dir(), "selftest-expected.json")
        os.makedirs(common.build_dir(), exist_ok=True)
        with open(path, "w") as f:
            json.dump(pins, f)
        return path

    def assert_fails(self, workload, path):
        rc, last, err = run_bench(workload, 0, expect=path)
        result = json.loads(last)
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("FAIL", err)

    def test_corrupted_world_pin_fails(self):
        def bump(tiny):
            world = sorted(tiny["churn500"][str(common.DEFAULT_SEED)])[0]
            tiny["churn500"][str(common.DEFAULT_SEED)][world]["events"] += 1
        self.assert_fails("churn500", self.corrupted(bump))

    def test_corrupted_serve_pin_fails(self):
        def bump(tiny):
            unit = sorted(tiny["serve_mixed"][str(common.DEFAULT_SEED)])[0]
            tiny["serve_mixed"][str(common.DEFAULT_SEED)][unit]["events"] += 1
        self.assert_fails("serve_mixed", self.corrupted(bump))


class Helpers(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            {"name": "parent", "id": 1, "parent": 0, "start_s": 0.0,
             "end_s": 10.0},
            # Two overlapping children (parallel threads) cover [1, 6).
            {"name": "child", "id": 2, "parent": 1, "start_s": 1.0,
             "end_s": 5.0},
            {"name": "child", "id": 3, "parent": 1, "start_s": 2.0,
             "end_s": 6.0},
            {"name": "child", "id": 4, "parent": 1, "start_s": 8.0,
             "end_s": 9.0},
        ]
        st = common.self_times(spans)
        self.assertEqual(st["parent"][0], 1)
        self.assertAlmostEqual(st["parent"][2], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(st["child"][1], 9.0)
        self.assertAlmostEqual(st["child"][2], 9.0)

    def test_percentile(self):
        self.assertEqual(common.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(common.percentile([7], 99), 7)
        self.assertEqual(common.percentile([1, 2, float("inf")], 99),
                         float("inf"))

    def test_fingerprints_must_agree_except_revision(self):
        a = {"nproc": 4, "cpu": "x", "compiler": "GNU 13", "build_type":
             "Release", "bench": "b", "revision": "r1"}
        self.assertEqual(common.comparable(a, dict(a, revision="r2")), [])
        self.assertEqual(common.comparable(a, dict(a, nproc=8)), ["nproc"])


if __name__ == "__main__":
    unittest.main()
