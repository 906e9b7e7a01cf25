#!/usr/bin/env python3
"""End-to-end benchmark entry point for omptune.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the omptune libraries under src/) in Release mode on
first use, then runs one workload in a fresh process. The benchmark binary
prints every metric by name and unit and, as its last stdout line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are the per-layer metrics, and a Chrome trace-event file is written under
the build directory's traces/ folder. BENCHMARK.json is the one list of
metric names and units: the binary reports what it measured, this script
rejects a name or unit the list does not hold and, in a traced run, adds
each per-layer metric of a layer the workload bypasses with the value 0.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root. Exits non-zero without printing a result
when the build, the run or the metric contract fails, and non-zero after
printing it when an output check failed (its "correct" is false).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_root):
    """Configure (once) and build the benchmark binary; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_root, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "omptune_perfbench",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "omptune_perfbench")


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected, trace):
    """The result line must carry the contract's metrics with their units;
    a traced run's missing per-layer metrics are filled in as 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in expected:
            return f"metric {name} is not in BENCHMARK.json"
        if metric.get("unit") != expected[name]:
            return f"metric {name} has unit {metric.get('unit')}, not {expected[name]}"
    missing = sorted(set(expected) - set(metrics))
    if missing and not trace:
        return f"missing end-to-end metrics {missing}"
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    for name, metric in metrics.items():
        if not isinstance(metric.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(build_root, "work"),
               "--trace-dir", os.path.join(build_root, "traces")]
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = completed.stdout.rstrip("\n").split("\n")
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout)
        log(f"workload {args.workload} exited with {completed.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
        problem = validate(result, contract_metrics(args.trace), args.trace)
    except (ValueError, OSError, KeyError) as error:
        problem = f"unreadable result: {error}"
    if problem:
        sys.stderr.write(completed.stdout)
        log(problem)
        return 1
    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    if result["correct"] is not True:
        log(f"workload {args.workload}: output checks failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
