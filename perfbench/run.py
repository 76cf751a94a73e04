#!/usr/bin/env python3
"""Benchmark entry point for semcor.

  python3 perfbench/run.py --workload tpcc_wire --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds the benchmark driver (and the
semcor library it links, from the checkout's sources) into .bench_build with
an optimized build, runs one measurement, and prints the driver's result as
the last line of stdout: one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to stderr. Exits non-zero, without a
result line, when the build or the run fails.

Workloads and metrics are described in perfbench/driver.cc.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("banking_wire", "tpcc_wire", "banking_inproc", "tpcc_inproc")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(source_dir):
    """Configures and builds the driver; returns its path or None."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = next((line.split("=", 1)[1].strip() for line in f
                         if line.startswith("CMAKE_HOME_DIRECTORY")), "")
        if os.path.realpath(home) != os.path.realpath(source_dir):
            shutil.rmtree(BUILD_DIR)
    steps = [
        ["cmake", "-S", source_dir, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed:", " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench_driver")


def valid(result):
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["correct"], bool)
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    driver = build(source_dir)
    if driver is None:
        return 1
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver did not finish within", RUN_TIMEOUT_S, "s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("driver failed with exit code", proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not valid(result):
        log("driver printed no valid result:", lines[-1])
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
