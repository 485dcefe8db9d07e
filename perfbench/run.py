#!/usr/bin/env python3
"""Builds the QuiCK benchmark runner from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload deep_backlog --seed 1 --seconds 10 --trace 0

The runner and the QuiCK libraries are built with CMake into .bench_build/
at the checkout root (reused by later runs). The runner's report is passed
through; its last line is the JSON result. The script exits non-zero,
without printing a result, when the build or the run fails.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("deep_backlog", "tenant_fanout", "saga_crossdc")
# A run must finish within 180 s; keep some headroom.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "quick_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return None
    binary = os.path.join(cmake_dir, "quick_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Per-run scratch space for the WAL directories; removed afterwards.
    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 1
    # Keep the span files of traced runs; drop everything else.
    traces = os.path.join(build_dir, "traces")
    for path in glob.glob(os.path.join(workdir, "spans-*.txt")):
        os.makedirs(traces, exist_ok=True)
        shutil.move(path, os.path.join(traces, os.path.basename(path)))
    shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = (proc.returncode == 0 and
              set(result) == {"correct", "attempted", "failed", "metrics"})
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("perfbench: runner failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
