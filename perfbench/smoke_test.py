#!/usr/bin/env python3
"""The benchmark's own tests: every workload, traced and untraced, on tiny
inputs (--smoke). Each run must check its outputs, fail no op, and print
exactly the metrics BENCHMARK.json declares, with their units.

    python3 perfbench/smoke_test.py
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, root=ROOT, env=None):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, env=env, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, out.returncode, out.stderr[-3000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})

    def test_every_workload(self):
        # mine_dense runs by hand only (see README.md), but its checks and
        # metrics must hold like the others'.
        names = [w["name"] for w in self.spec["workloads"]] + ["mine_dense"]
        for name in names:
            with self.subTest(workload=name, trace=0):
                result = run(name, 0)
                self.check(result, self.spec["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
            with self.subTest(workload=name, trace=1):
                self.check(run(name, 1), self.spec["per_layer"])

    def test_checkouts_sharing_a_build_dir_build_their_own_sources(self):
        # Two checkouts with one absolute CARGO_TARGET_DIR, as when a parent
        # and a change are compared: each must configure (and so build and
        # time) its own sources, not the first one's.
        base = os.path.join(ROOT, ".bench_build", "two-checkouts")
        shutil.rmtree(base, ignore_errors=True)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(base, "target"))
        copies = [os.path.join(base, name) for name in ("a", "b")]
        for copy in copies:
            for tree in ("src", "perfbench"):
                shutil.copytree(os.path.join(ROOT, tree),
                                os.path.join(copy, tree),
                                ignore=shutil.ignore_patterns("__pycache__"))
            self.assertTrue(run("mine_scan", 0, root=copy, env=env)["correct"])
        homes = []
        for cache in glob.glob(os.path.join(
                env["CARGO_TARGET_DIR"], "*", "CMakeCache.txt")):
            with open(cache) as f:
                homes += [line.split("=", 1)[1].strip() for line in f
                          if line.startswith("CMAKE_HOME_DIRECTORY:")]
        shutil.rmtree(base, ignore_errors=True)
        self.assertEqual(
            sorted(os.path.realpath(home) for home in homes),
            sorted(os.path.realpath(os.path.join(copy, "perfbench"))
                   for copy in copies))

    def test_fails_without_library_sources(self):
        # A tree holding only the benchmark must fail fast, printing no
        # result.
        bare = os.path.join(ROOT, ".bench_build", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mine_scan",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
