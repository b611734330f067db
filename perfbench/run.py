#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload nfs_read --seed 1 --seconds 10 --trace 0

The first run configures and builds a Release tree in .bench_build/perfbench
(CMake; about a minute on four cores); later runs only re-check it. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. With --trace 1 the spans of one traced repetition are written to
.bench_build/traces/. See perfbench/README.md for workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("nfs_read", "fleet_steady", "fleet_overload_lossy")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def step(cmd, timeout):
    """Runs one build step with its output on stderr; exits on failure."""
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: {cmd[0]} failed: {err}")
    if result.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited {result.returncode}")


def build():
    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
         BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            TRACES, f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
