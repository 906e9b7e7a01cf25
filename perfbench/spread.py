#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
with Q1 and Q3 from statistics.quantiles(values, n=4).

    python3 perfbench/spread.py --workloads paper_pipeline serve_swap \
        --seeds 1 2 3 4 5 --seconds 10 [--out results.jsonl]

Each run is `python3 perfbench/run.py ... --trace 0` from the repository
root; a run that fails or reports "correct": false stops the script.
Spreads are compared with a third of each metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall_s = time.monotonic() - start
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}")
    result = json.loads(done.stdout.strip().split("\n")[-1])
    if result["correct"] is not True:
        sys.exit(f"{workload} seed {seed}: output checks failed\n{done.stdout}")
    return result, wall_s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", help="append one JSON line per run here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            result, wall_s = run(workload, seed, seconds)
            if args.out:
                with open(args.out, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "wall_s": wall_s, **result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({wall_s:.1f} s): " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{workload:20s} {name:14s} median {median:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}  {verdict}",
                  flush=True)


if __name__ == "__main__":
    main()
