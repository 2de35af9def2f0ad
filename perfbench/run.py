#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload once.

    python3 perfbench/run.py --workload mine_scan --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus the perfbench
program) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls rebuild only what changed. The build and work directories are named
after the checkout's path, so checkouts that share one $CARGO_TARGET_DIR
each build and run their own sources. Build output goes to stderr, so the
last line of stdout is the run's JSON result. --smoke runs tiny inputs for
the benchmark's own tests (perfbench/smoke_test.py).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mine_scan", "mine_dense", "mine_dist", "serve_mixed")
RUN_TIMEOUT_S = 170


def checkout_dir(build_dir, kind):
    """`<build_dir>/perfbench-<kind>-<hash of this checkout's path>`."""
    key = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    return os.path.join(build_dir, "perfbench-%s-%s" % (kind, key))


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    cmake_dir = checkout_dir(build_dir, "build")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s/src; run from a "
                 "full checkout" % ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    work_dir = checkout_dir(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.smoke:
        command.append("--smoke")
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
