#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload, untraced and
traced, must emit every metric BENCHMARK.json names, with its unit and a
finite value, and report correct outputs. `harq_rtx` is run too, though
BENCHMARK.json does not list it (see README.md, Steadiness). A directory
holding only the benchmark (no repository sources) must fail without a
result.

    python3 perfbench/test_smoke.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


class SpecShape(unittest.TestCase):
    def test_spec_keys_and_limits(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class ShortRuns(unittest.TestCase):
    def check(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        if workload != "harq_rtx":
            # The listed workloads' operations never fail, so two sets of
            # runs agree on the failure count.
            self.assertEqual(result["failed"], 0)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        traffic = [line for line in out.stdout.splitlines()
                   if line.startswith("perfbench: traffic ")]
        self.assertEqual(len(traffic), 1)
        report = json.loads(traffic[0].split(" ", 2)[2])
        self.assertEqual(report["mismatches"], 0)
        if workload == "serve_mix":
            # A capacity the sweep's top rate still met is only a lower bound.
            self.assertIs(report["slo_capacity_is_lower_bound"], False)

    def test_every_workload_untraced_and_traced(self):
        for workload in [w["name"] for w in SPEC["workloads"]] + ["harq_rtx"]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class WithoutSources(unittest.TestCase):
    def test_benchmark_alone_fails_without_a_result(self):
        alone = ROOT / ".bench_build" / "smoke_alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", alone)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, alone / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = run(SPEC["workloads"][0]["name"], 0, cwd=alone)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
