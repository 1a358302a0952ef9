#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Checks BENCHMARK.json against the benchmark contract, runs every workload at
smoke size through run.py in both modes and checks that each metric it names is
emitted with its unit and that the correctness gate passes, and checks that the
benchmark refuses to run without the tsvd sources.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.load_spec()


class SpecTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)

    def test_names_and_units(self):
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for section in ("end_to_end", "per_layer"):
            for m in SPEC[section]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_bounds(self):
        by_name = {m["name"]: m for m in SPEC["end_to_end"]}
        self.assertEqual(by_name["setup_s"]["unit"], "s")
        self.assertEqual(by_name["setup_s"]["better"], "lower")
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            self.assertLessEqual(m["bound"], by_name["setup_s"]["bound"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertIn(f"seed {run.DEFAULT_SEED}, held-out seed {run.HELDOUT_SEED}",
                          w["why"])


class SmokeTest(unittest.TestCase):
    """Every workload at smoke size, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("tsvdbench did not build")

    def check(self, workload, trace):
        code, result = run.run_once(workload, run.DEFAULT_SEED, 1, trace, smoke=True,
                                    binary=self.binary)
        self.assertIsNotNone(result, f"{workload}: no result")
        self.assertEqual(code, 0, f"{workload}: {result}")
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, trace=False)

    def test_workloads_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, trace=True)
                trace = run.ROOT / ".bench_out" / f"trace-{workload}-{run.DEFAULT_SEED}.json"
                with open(trace) as f:
                    doc = json.load(f)
                self.assertIn("machine", doc)
                self.assertTrue(doc["spans"], f"{workload}: no spans recorded")


class WithoutSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = run.ROOT / ".bench_work" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "calls_dense", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
