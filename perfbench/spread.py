#!/usr/bin/env python3
"""Run-to-run spread of the hbp benchmark's end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [workload ...]

Runs each workload (default: all in BENCHMARK.json) once per seed with
--trace 0 and prints each run's metrics.  Then, for every end-to-end metric,
it prints the median of the runs and the distance between the first and
third quartile as a share of that median, next to the metric's bound.  A
spread above a third of the bound is marked "!".
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        print(workload)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "!" if spread > m["bound"] / 3 else " "
            print(f"  {m['name']:<14} median {med:<14.6g} spread "
                  f"{spread:6.3f} {flag} bound {m['bound']}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
