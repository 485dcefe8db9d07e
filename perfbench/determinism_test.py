#!/usr/bin/env python3
"""Checks that the ManualClock workloads are deterministic.

Runs the traced benchmark twice with one seed for deep_backlog and
tenant_fanout and compares the per-item counts ("count <name> <value>"
lines: fdb.*, ck.zone.*, ConsumerStats counters and the benchmark's own
counts over the deterministic count window). Every count that differs is
named; the exit code is 1 when any differs.

Usage (from the root of a checkout): python3 perfbench/determinism_test.py
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("deep_backlog", "tenant_fanout")
SEED = 7
SECONDS = 2


def counts(workload):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    found = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "count":
            found[parts[1]] = int(parts[2])
    if not found:
        raise SystemExit("%s: no counts in the traced output" % workload)
    return found


def main():
    failed = False
    for workload in WORKLOADS:
        first, second = counts(workload), counts(workload)
        differing = sorted(name for name in set(first) | set(second)
                           if first.get(name) != second.get(name))
        for name in differing:
            print("%s: count %s differs: %s vs %s" %
                  (workload, name, first.get(name), second.get(name)))
        print("%s: %d counts, %d differ" %
              (workload, len(first), len(differing)))
        failed = failed or bool(differing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
