#!/usr/bin/env python3
"""Quick self-test of the hbp benchmark.

    python3 perfbench/selftest.py

Runs every workload for one second in both modes at the default seed and
asserts that:
  * every metric the benchmark defines prints by name with its unit, in the
    text report and (for those in BENCHMARK.json) in the final JSON line;
  * the text-only metrics (run_s_p90, fail_frac, goodput_frac, capture_s,
    analysis.eq3_gap) print on the workloads they belong to;
  * every run matched its pinned fingerprint, so fail_frac is 0.
Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

TEXT_ONLY = {
    "fig8_hbp": ["fail_frac", "goodput_frac", "capture_s"],
    "fig8_pushback": ["fail_frac", "goodput_frac"],
    "fig6_string": ["run_s_p90", "fail_frac", "capture_s",
                    "analysis.eq3_gap"],
}
LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)")


def check_run(spec, workload, trace, errors):
    metrics = spec["per_layer" if trace else "end_to_end"]
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: "
                      f"{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    text = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            text[m.group(1)] = (float(m.group(2)), m.group(3))

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{where}: {result['failed']} of {result['attempted']}"
                      f" runs failed their check: {proc.stderr[-2000:]}")
    pinned = re.search(r"(\d+) pinned simulations", proc.stdout)
    if pinned is None or int(pinned.group(1)) == 0:
        errors.append(f"{where}: no pinned fingerprint for seed 1")
    names = [m["name"] for m in metrics]
    if sorted(result["metrics"]) != sorted(names):
        errors.append(f"{where}: JSON metrics {sorted(result['metrics'])}")
    for m in metrics:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append(f"{where}: JSON {m['name']} = {got}")
        if text.get(m["name"], (None, None))[1] != m["unit"]:
            errors.append(f"{where}: text line for {m['name']} missing")
    if not trace:
        for name in TEXT_ONLY[workload]:
            if name not in text:
                errors.append(f"{where}: text line for {name} missing")
        if text.get("fail_frac", (1.0, ""))[0] != 0.0:
            errors.append(f"{where}: fail_frac is not 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace, errors)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
