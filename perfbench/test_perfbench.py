#!/usr/bin/env python3
"""The benchmark's own tests, at smoke scale.

    python3 perfbench/test_perfbench.py

Run from the repository root; the first test builds the benchmark. Every
workload must print every named metric with its unit in both modes, a
planted wrong expected digest must fail the run, and one seed must repeat
the deterministic counts (comparisons, stored tuples, page-cache misses,
facts digest) exactly.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=7, trace=0, extra=(), cwd=ROOT, script=RUN):
    """Runs one smoke-scale measurement; returns (exit code, result, detail)."""
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = None
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-detail "):
            detail = json.loads(line[len("perfbench-detail "):])
    return proc.returncode, result, detail


class MetricsTest(unittest.TestCase):
    def check_names(self, trace, listed):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, detail = run(workload, trace=trace)
                self.assertEqual(code, 0, detail)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], detail)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in listed}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_named_with_units(self):
        self.check_names(0, SPEC["end_to_end"])
        # Metrics that must never read 0 on a correct run.
        for workload in WORKLOADS:
            _, result, _ = run(workload)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, (workload, name))

    def test_per_layer_metrics_named_with_units(self):
        self.check_names(1, SPEC["per_layer"])


class ChecksTest(unittest.TestCase):
    def test_planted_wrong_digest_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, detail = run(workload,
                                           extra=("--expect-digest", "1"))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(any("digest" in e for e in detail["errors"]),
                                detail)

    def test_same_seed_repeats_deterministic_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, first = run(workload, seed=11)
                _, _, second = run(workload, seed=11)
                self.assertEqual(first["detail"], second["detail"])
                for key in ("check.comparisons", "check.stored_tuples",
                            "check.cache_misses", "facts_digest_low32"):
                    self.assertIn(key, first["detail"])
                self.assertGreater(first["detail"]["check.comparisons"], 0)

    def test_seed_changes_the_inputs(self):
        _, _, a = run("nba_discover", seed=11)
        _, _, b = run("nba_discover", seed=12)
        self.assertNotEqual(a["detail"]["facts_digest_low32"],
                            b["detail"]["facts_digest_low32"])

    def test_paged_store_misses_only_in_weather_durable(self):
        for workload in WORKLOADS:
            _, _, detail = run(workload, seed=3)
            misses = detail["detail"]["check.cache_misses"]
            if workload == "weather_durable":
                self.assertGreater(misses, 0)
            else:
                self.assertEqual(misses, 0, workload)

    def test_fails_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "bare-test")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(
                    bare, ".bench_build")))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
