#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload hot_replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds the program and the load generator with
CMake into .bench_build (or $CARGO_TARGET_DIR when set); later runs only
re-check the build. Result and span files go to .bench_out. The last line of
standard output is the load generator's JSON result. Build output goes to
standard error. The exit status is nonzero when the build fails, an operation
fails (including a reply that fails the correctness gate), or the run exceeds
its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot_replay", "cold_sweep", "churn_session")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench",
         "perfbench_selftest"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run(cmd):
    """Runs cmd with a time limit, passing its stdout through; returns its code."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="length of the measured window (BENCHMARK.json: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run the benchmark's own self-tests and exit")
    args = p.parse_args()
    if not args.self_test and (args.workload is None or args.seconds is None):
        p.error("--workload and --seconds are required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    if args.self_test:
        return run([os.path.join(build_dir, "perfbench_selftest")])
    sys.stdout.flush()
    return run([os.path.join(build_dir, "perfbench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
