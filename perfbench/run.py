#!/usr/bin/env python3
"""Builds and runs the paper-workload benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload mf-lapse --seed 1 --seconds 10 --trace 0

The benchmark is built from this checkout's sources into
.bench_build/perfbench (incrementally after the first run). Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Full results and, for traced runs, the spans are written to
.bench_build/results.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ps", "system.h")):
        print("perfbench: no parameter-server sources under src/",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", out]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
