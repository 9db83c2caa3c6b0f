#!/usr/bin/env python3
"""Tests for the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout; takes about a minute (short
runs of the cheapest workloads). Checks that BENCHMARK.json is well
formed, that every metric it names is printed with its unit, that the
simulated metrics repeat exactly for one seed, and that a tampered
ledger fails the correctness check.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Simulated (host-independent) metrics: a fixed seed must reproduce
# them bit for bit. alloc_words_per_txn only on the sequential driver.
SIMULATED = ["sim_ktps", "sim_latency_p50_ms", "sim_latency_p95_ms",
             "txn_abort_share"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace=0, seconds=1, extra=()):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    if proc.returncode != 0:
        raise AssertionError("run.py failed: " + proc.stderr)
    return json.loads(proc.stdout.strip().split("\n")[-1])


class SpecTest(unittest.TestCase):
    def test_names_and_units(self):
        spec = load_spec()
        names = ([w["name"] for w in spec["workloads"]]
                 + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
        for n in names:
            self.assertRegex(n, NAME)
            self.assertLessEqual(len(n), 64)
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))

    def test_contract_shape(self):
        spec = load_spec()
        self.assertEqual(sorted(spec), sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"]))
        for m in spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for w in spec["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertNotIn("\n", w["why"])
            self.assertLessEqual(len(w["why"]), 200)


class RunTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        # run.py itself refuses a result whose metric set or units differ
        # from BENCHMARK.json; check the printed object independently.
        spec = load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run("ycsba-peak", 3, trace=trace)
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
            self.assertGreaterEqual(r["attempted"], 1)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            self.assertEqual(got, want)
            for v in r["metrics"].values():
                self.assertIsInstance(v["value"], (int, float))

    def test_simulated_metrics_repeat_for_one_seed(self):
        for workload, names in (
                ("ycsba-peak", SIMULATED + ["alloc_words_per_txn"]),
                ("ycsba-5g-par", SIMULATED)):
            a = run(workload, 5)["metrics"]
            b = run(workload, 5)["metrics"]
            for n in names:
                self.assertEqual(a[n]["value"], b[n]["value"], workload + " " + n)

    def test_tampered_ledger_fails_the_check(self):
        r = run("ycsba-peak", 2, extra=["--tamper"])
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])


if __name__ == "__main__":
    unittest.main()
