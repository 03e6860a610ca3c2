#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

- quick mode: one op per workload at the pinned seed matches the pins;
- a non-default seed passes every workload's semantic checks;
- traced and untraced runs produce identical output digests;
- BENCHMARK.json names exactly the metrics the runs print, within the
  benchmark contract's limits;
- without the repository's sources next to perfbench/, run.py fails without
  printing a result.

Takes about three minutes (two traced runs).
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OTHER_SEED = 7
# Every workload the driver runs; BENCHMARK.json gates a subset of them.
WORKLOADS = ["classA-round", "m-gather", "campaign-mixed", "check-exhaustive"]


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def digests_and_result(lines):
    return json.loads(lines[-2])["digests"], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.bench = json.load(fh)
        with open(os.path.join(HERE, "pins.json")) as fh:
            cls.pins = json.load(fh)

    def quick(self, seed):
        code, lines = run("--quick", "--seed", str(seed))
        self.assertEqual(code, 0, lines)
        digests, result = digests_and_result(lines)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], 2 * len(WORKLOADS))
        return digests, result

    def traced(self, seed):
        code, lines = run("--workload", WORKLOADS[0], "--seed", str(seed),
                          "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0, lines)
        digests, result = digests_and_result(lines)
        self.assertTrue(result["correct"])
        return digests, result

    def test_pinned_seed_matches_pins_traced_or_not(self):
        digests, result = self.quick(self.pins["seed"])
        self.assertEqual(digests, self.pins["digests"])
        expected = {f"{w}.{m['name']}" for w in WORKLOADS
                    for m in self.bench["end_to_end"]}
        self.assertEqual(set(result["metrics"]), expected)
        traced_digests, traced = self.traced(self.pins["seed"])
        self.assertEqual(traced_digests, digests)
        self.assertEqual(set(traced["metrics"]),
                         {m["name"] for m in self.bench["per_layer"]})
        for m in self.bench["per_layer"]:
            self.assertEqual(traced["metrics"][m["name"]]["unit"], m["unit"])

    def test_other_seed_passes_semantic_checks_traced_or_not(self):
        self.assertNotEqual(OTHER_SEED, self.pins["seed"])
        digests, _ = self.quick(OTHER_SEED)
        self.assertNotEqual(digests["classA-round"],
                            self.pins["digests"]["classA-round"])
        traced_digests, _ = self.traced(OTHER_SEED)
        self.assertEqual(traced_digests, digests)

    def test_benchmark_json_within_contract(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in b["workloads"]] + \
            [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        for n in names:
            self.assertRegex(n, name)
        self.assertEqual(len(names) - len(b["workloads"]),
                         len(set(names[len(b["workloads"]):])))
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertLessEqual({w["name"] for w in b["workloads"]}, set(WORKLOADS))
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertRegex(m["unit"], unit)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertRegex(m["unit"], unit)

    def test_fails_without_repository_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
