#!/usr/bin/env python3
"""Builds the CDL benchmark from this checkout's sources and runs one workload.

    python3 cdlbench/run.py --workload batch-paper --seed 1 --seconds 10 --trace 0
    python3 cdlbench/run.py --self-test    # the benchmark's own tests

The build goes to .bench_build/cdlbench under the checkout root. Build logs go
to stderr; the last line of stdout is the workload's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cdlbench")


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry cleanly next time
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("cdlbench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "cdlbench_tests")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("cdlbench"):
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "cdlbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
