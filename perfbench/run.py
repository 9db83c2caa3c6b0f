#!/usr/bin/env python3
"""Run one benchmark measurement of massbft and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. --workload all runs every
workload in turn, each in its own processes, and prints each result. The script builds the
measuring program (perfbench/bench.exe) from source with dune into
.bench_build/, then:

  * --trace 0: times the set-up of fresh processes (process start ->
    engine started), the measured one included, and reports their
    median as setup_s; the measured process prints the other
    end-to-end metrics;
  * --trace 1: runs the measured process in traced mode, which prints
    the per-layer metrics.

Every metric named in BENCHMARK.json for the requested mode must come
back with its declared unit, or the run fails. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit code 0 when a result was printed; non-zero, without a result,
when the program cannot be built or a measurement breaks.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# Set-up samples: at least SETUP_MIN processes, more while they take
# under SETUP_BUDGET_S in all (a 10 ms set-up needs many for a steady
# median), at most SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 9, 41, 1.5
DEADLINE_S = 170.0


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no massbft sources next to perfbench/ (dune-project, lib/)")
    dune = shutil.which("dune")
    cmd = [dune] if dune else [shutil.which("opam") or "opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        cmd + ["build", "--root", ROOT, "--build-dir", BUILD_DIR,
               "--display", "quiet", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        die("build failed")


def remaining(t_start):
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 0:
        die("out of time")
    return left


def setup_sample(workload, seed, t_start):
    """Seconds from spawning a process to its engine having started."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [EXE, "setup", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate(timeout=remaining(t_start))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        die("set-up process failed")
    return t1 - t0


def measure(workload, args, t_start):
    cmd = [EXE, "run", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tamper:
        cmd.append("--tamper")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=remaining(t_start))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        die("measuring process exited with code %d" % proc.returncode)
    lines = rest.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("measuring process printed no result")
    return result, t_ready


def validate(result, expected):
    """Every expected metric is present, finite and in its declared unit."""
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        die("metrics %s differ from BENCHMARK.json's %s"
            % (sorted(metrics), sorted(expected)))
    for name, m in metrics.items():
        if m.get("unit") != expected[name]:
            die("metric %s has unit %r, not %r" % (name, m.get("unit"), expected[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            die("metric %s is not a finite number: %r" % (name, v))


def run_workload(workload, args, spec):
    t_start = time.monotonic()
    samples = []
    if args.trace == 0:
        while len(samples) < SETUP_MIN - 1 or (
                sum(samples) < SETUP_BUDGET_S and len(samples) < SETUP_MAX - 1):
            samples.append(setup_sample(workload, args.seed, t_start))
    result, t_ready = measure(workload, args, t_start)
    if args.trace == 0:
        samples.append(t_ready)
        print("setup_s samples: " + " ".join("%.4f" % s for s in samples))
        result["metrics"]["setup_s"] = {
            "value": statistics.median(samples), "unit": "s"}
        expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    validate(result, expected)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tamper", action="store_true",
                   help="corrupt one leader's ledger (the check must fail)")
    args = p.parse_args()
    if args.seconds < 1:
        die("--seconds must be positive")
    build()
    for workload in (names if args.workload == "all" else [args.workload]):
        if args.workload == "all":
            print("=== %s ===" % workload)
        run_workload(workload, args, spec)


if __name__ == "__main__":
    main()
