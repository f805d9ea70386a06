#!/usr/bin/env python3
"""Builds the end-to-end overlay benchmark from source and runs it once.

Run from the root of a checkout:

    python3 bench/e2e/run.py --workload feed_fanout --seed 1 --seconds 10 --trace 0

The binary is configured and built in build-e2e/ under the checkout, with
the repository's own CMake definition of the library (and so its build
type and flags); the first run builds it, later runs rebuild
incrementally. Build output goes to stderr. The benchmark's own output goes
to stdout, and its last line is the result JSON: {"correct", "attempted",
"failed", "metrics"}. Exits non-zero, without a result line, when the build
fails (for example when the repository's sources are missing) or the run
does not finish in time.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
WORKLOADS = ["feed_fanout", "paced_single", "sub_churn", "scored_topk"]
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds the benchmark; False on failure. Both steps
    are incremental, so a built checkout costs about a second."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR],
        ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out",
                        help="Chrome trace-event JSON file (with --trace 1)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
