#!/usr/bin/env python3
"""Build and run the hbp benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig8_hbp --seed 1 --seconds 5 --trace 0

The first call configures and builds the simulator's src/ libraries and the
benchmark program (perfbench/hbp_perfbench.cpp) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed.  Build output goes to stderr, so the last line of stdout is the
program's JSON result.  All arguments are passed on to the program, together
with the pinned fingerprint table perfbench/fingerprints.txt.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion, killing it on timeout; returns its exit code."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"timed out after {timeout} s: {' '.join(cmd)}",
                  file=sys.stderr)
            return 124


def build():
    """Builds the program; returns its path, or None if the build failed."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
           stdout=sys.stderr) != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "--target", "hbp_perfbench",
            "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, "hbp_perfbench")


def main():
    binary = build()
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return run([binary, "--fingerprints",
                os.path.join(BENCH_DIR, "fingerprints.txt")] + sys.argv[1:],
               RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
