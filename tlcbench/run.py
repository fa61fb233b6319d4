#!/usr/bin/env python3
"""Builds and runs the TLC serving benchmark for one workload.

    python3 tlcbench/run.py --workload tlc_uniform --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark and the BEAS library are built
from source with CMake into $CARGO_TARGET_DIR (default .bench_build), the
tests of the benchmark's own code run, then the benchmark itself. Build
output goes to stderr; the benchmark's report goes to stdout and ends with
one JSON line. The exit code is the benchmark's: non-zero on any build
failure, wrong answer, failed workload self-check or failed operation.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    subprocess.run([os.path.join(build_dir, "tlcbench_test")],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tlc_uniform", "tlc_hotkey", "cdr_ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print("tlcbench: build failed: %s" % err, file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "tlcbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
