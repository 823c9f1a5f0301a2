#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload hot|wide|fleet --seed N \
        --seconds S --trace 0|1

Configures e2ebench/CMakeLists.txt (the qlove library from this checkout's
sources plus the benchmark) into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that is unset, builds it, runs the oracle
self-test, then runs one measurement. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. Exits non-zero without a
result when the checkout holds no qlove sources or any step fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def step(cmd, timeout):
    """Runs one build step with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        fail(f"'{' '.join(cmd)}' exited {result.returncode}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "engine", "engine.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no qlove source tree here ({needed} is missing)")

    build = build_dir()
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build,
              "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    step(["cmake", "--build", build, "-j", "4"], timeout=800)
    step([os.path.join(build, "oracle_test")], timeout=60)

    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(build, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"benchmark exited {result.returncode}")
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no JSON result")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
