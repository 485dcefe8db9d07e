#!/usr/bin/env python3
"""Threshold checks over BENCH_*.json reports.

Two kinds of checks:

1. Ratio invariants (always run, machine-independent): structural
   performance properties this repo promises, asserted within a single
   report so they hold on any hardware —
     - micro_resolver: the interval resolver beats the legacy linear scan
       by >= 5x on the stale-miss conflict check at 10k tracked commits.
     - micro_substrates: group commit beats per-commit log rounds by
       >= 1.5x on concurrent commit throughput; a queue-zone Dequeue(1)
       reads no more index entries at a 16,384-item backlog than at 64;
       its storage scans visit no more version chains after 8,000
       completions than after 1,000; the prune that retires 1,000 churn
       commits visits no more chains beside 65,536 untouched live keys
       than beside 1,000; decoding a 32-field record makes at most
       twice the heap allocations of decoding a 2-field one
       (BM_RecordDecode); the interval resolver's commit-and-prune of
       one 48-byte-key conflict range makes at most 4/3 the heap
       allocations of an 8-byte-key one (BM_ResolverRangeAllocs); and a
       RecordStore::SaveRecord makes at most 7 heap allocations per value
       index entry it writes (BM_SaveRecordAllocs, the slope between 1 and
       8 indexes) (counts, so host speed cannot move them).
     - fig7_contention: end-to-end throughput at the CI shape
       (selection_frac 0.05) improves with group commit on vs off.
     - admission_noisy_neighbor: admission control halves (>= 2x) the
       victim tenant's p99 latency under a flooding neighbor.
     - scale_tenants: a sharded (16) top-level queue with striped
       scanners beats the 1-shard unstriped baseline by >= 1.5x on
       drain throughput at an equal thread budget.

2. Baseline regression (with --baseline): every throughput counter shared
   by a baseline run and the current run must not drop by more than
   --threshold (default 25%). Baselines live in bench/baseline and are
   machine-relative; regenerate with --update after an intentional change:

     QUICK_BENCH_REPORT_DIR=bench/baseline ./build/bench/bench_micro_resolver
     ... (see bench/README.md)

When $GITHUB_STEP_SUMMARY is set (any GitHub Actions job), a compact
markdown bench-delta table — one row per gated ratio and per compared
throughput counter, current vs committed baseline — is appended to it so
the run's perf picture is readable from the job page without digging
through logs.

Exit status is non-zero when any check fails.
"""

import argparse
import glob
import json
import os
import sys

# Counters treated as higher-is-better throughput for baseline comparison.
THROUGHPUT_KEYS = (
    "throughput_items_per_sec",
    "throughput_commits_per_sec",
    "checks_per_sec",
    "commits_per_sec",
)

failures = []

# Rows for the $GITHUB_STEP_SUMMARY table, filled as checks run:
# (kind, bench, subject, baseline_text, current_text, delta_text, ok).
summary_rows = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL: {msg}")


def note(msg):
    print(f"  ok: {msg}")


def load_reports(directory):
    """{bench_name: {run_name: {counter: value}}} for BENCH_*.json in dir."""
    reports = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        with open(path) as f:
            report = json.load(f)
        runs = {}
        for run in report.get("runs", []):
            runs[run["name"]] = run.get("counters", {})
        reports[report["bench"]] = runs
    return reports


def find_counter(runs, run_substr, counter):
    """The counter value of the first run whose name contains run_substr."""
    for name, counters in runs.items():
        if run_substr in name and counter in counters:
            return name, counters[counter]
    return None, None


def check_ratio(runs, bench, numer_substr, denom_substr, counter, min_ratio):
    n_name, numer = find_counter(runs, numer_substr, counter)
    d_name, denom = find_counter(runs, denom_substr, counter)
    if numer is None or denom is None:
        fail(f"{bench}: missing runs for ratio check "
             f"({numer_substr!r} and/or {denom_substr!r} with {counter!r})")
        return
    if denom <= 0:
        fail(f"{bench}: {d_name} has non-positive {counter} ({denom})")
        return
    ratio = numer / denom
    ok = ratio >= min_ratio
    summary_rows.append(("ratio", bench, f"{n_name} / {d_name} ({counter})",
                         f">= {min_ratio}x", f"{ratio:.1f}x", "", ok))
    if not ok:
        fail(f"{bench}: {n_name} / {d_name} {counter} ratio {ratio:.2f} "
             f"< required {min_ratio}x")
    else:
        note(f"{bench}: {n_name} vs {d_name}: {ratio:.1f}x "
             f"(required {min_ratio}x)")


def check_max(runs, bench, run_substr, counter, max_value):
    """A count bound: the counter of one run must not exceed max_value."""
    name, value = find_counter(runs, run_substr, counter)
    if value is None:
        fail(f"{bench}: missing run for bound check "
             f"({run_substr!r} with {counter!r})")
        return
    ok = value <= max_value
    summary_rows.append(("ratio", bench, f"{name} ({counter})",
                         f"<= {max_value}", f"{value:.2f}", "", ok))
    if not ok:
        fail(f"{bench}: {name} {counter} {value:.2f} > allowed {max_value}")
    else:
        note(f"{bench}: {name} {counter}: {value:.2f} (allowed {max_value})")


def ratio_invariants(current):
    if "micro_resolver" in current:
        check_ratio(current["micro_resolver"], "micro_resolver",
                    "BM_ResolverStaleMiss/interval/10000",
                    "BM_ResolverStaleMiss/linear/10000",
                    "checks_per_sec", 5.0)
    if "micro_substrates" in current:
        check_ratio(current["micro_substrates"], "micro_substrates",
                    "BM_FdbConcurrentCommit/group",
                    "BM_FdbConcurrentCommit/single",
                    "throughput_commits_per_sec", 1.5)
        # Operands swapped: entries read at 64 over entries read at 16,384
        # is >= 1 exactly when the big backlog costs no more (DESIGN.md §4c).
        check_ratio(current["micro_substrates"], "micro_substrates",
                    "BM_QueueZoneDequeueComplete/64",
                    "BM_QueueZoneDequeueComplete/16384",
                    "index_entries_per_dequeue", 1.0)
        # Operands swapped likewise: the version chains a Dequeue(1)'s
        # storage scans visit after 1,000 completions, over those after
        # 8,000, is >= 1 exactly when completed items' dead keys cost the
        # scan nothing; and the chains the prune retiring 1,000 churn
        # commits visits beside 1,000 live keys, over those beside 65,536,
        # is >= 1 exactly when a prune costs what it retires, not the
        # store's size (DESIGN.md §4c).
        check_ratio(current["micro_substrates"], "micro_substrates",
                    "BM_QueueZoneDequeueAfterChurn/1000",
                    "BM_QueueZoneDequeueAfterChurn/8000",
                    "chains_per_dequeue", 1.0)
        check_ratio(current["micro_substrates"], "micro_substrates",
                    "BM_FdbPruneAfterChurn/1000",
                    "BM_FdbPruneAfterChurn/65536",
                    "chains_per_prune", 1.0)
        # Operands swapped likewise: the heap allocations decoding a
        # 2-field record makes, over those of a 32-field one, is >= 0.5
        # exactly when 32 fields cost at most twice the allocations of 2
        # (DESIGN.md §4c, "Record codec").
        check_ratio(current["micro_substrates"], "micro_substrates",
                    "BM_RecordDecode/2", "BM_RecordDecode/32",
                    "allocs_per_decode", 0.5)
        # Operands swapped likewise: the heap allocations the resolver makes
        # adding and retiring a range of 8-byte keys, over those for 48-byte
        # keys, is >= 0.75 exactly when the longer keys cost at most 4/3 the
        # allocations: the keys are moved into their node, not copied
        # (DESIGN.md §4c, "Resolver").
        check_ratio(current["micro_substrates"], "micro_substrates",
                    "BM_ResolverRangeAllocs/8", "BM_ResolverRangeAllocs/48",
                    "allocs_per_range", 0.75)
        # The heap allocations a save makes per value-index entry it
        # writes: the entry's key, the write buffer's node and key copy, the
        # write conflict's keys and the conflict list's growth, about 6.4;
        # keys built through Tuple temporaries cost about 14 (DESIGN.md
        # §4c, "Key building").
        check_max(current["micro_substrates"], "micro_substrates",
                  "BM_SaveRecordAllocs", "allocs_per_index_entry", 7.0)
    if "fig7_contention" in current:
        check_ratio(current["fig7_contention"], "fig7_contention",
                    "BM_Fig7_SelectionFrac/500/group",
                    "BM_Fig7_SelectionFrac/500/single",
                    "throughput_items_per_sec", 1.2)
    if "fig7_async" in current:
        # The async pipelined consumer core (DESIGN.md §11): a 256-deep
        # in-flight window must beat the synchronous pipeline by >= 10x on
        # drain throughput at the same 12-thread budget.
        check_ratio(current["fig7_async"], "fig7_async",
                    "BM_Fig7_Async/w256",
                    "BM_Fig7_Async/w0",
                    "throughput_items_per_sec", 10.0)
    if "scale_tenants" in current:
        # Sharded Q_C scale-out (DESIGN.md §12): 16 shards + striped
        # scanners must beat the 1-shard unstriped baseline by >= 1.5x on
        # drain throughput at an equal thread budget.
        check_ratio(current["scale_tenants"], "scale_tenants",
                    "BM_ScaleTenants/shards16/striped",
                    "BM_ScaleTenants/shards1/plain",
                    "throughput_items_per_sec", 1.5)
    if "admission_noisy_neighbor" in current:
        check_ratio(current["admission_noisy_neighbor"],
                    "admission_noisy_neighbor",
                    "BM_NoisyNeighbor/admission_off",
                    "BM_NoisyNeighbor/admission_on",
                    "victim_p99_ms", 2.0)


def baseline_regressions(baseline, current, threshold):
    compared = 0
    for bench, base_runs in sorted(baseline.items()):
        cur_runs = current.get(bench)
        if cur_runs is None:
            fail(f"{bench}: baseline exists but no current report was found")
            continue
        for run_name, base_counters in sorted(base_runs.items()):
            cur_counters = cur_runs.get(run_name)
            if cur_counters is None:
                fail(f"{bench}: baseline run {run_name!r} missing from "
                     f"current report")
                continue
            for key in THROUGHPUT_KEYS:
                if key not in base_counters or key not in cur_counters:
                    continue
                base, cur = base_counters[key], cur_counters[key]
                if base <= 0:
                    continue
                compared += 1
                drop = 1.0 - cur / base
                ok = drop <= threshold
                summary_rows.append(
                    ("baseline", bench, f"{run_name} ({key})",
                     f"{base:.6g}", f"{cur:.6g}", f"{-100 * drop:+.1f}%", ok))
                if not ok:
                    fail(f"{bench}: {run_name} {key} regressed "
                         f"{100 * drop:.1f}% ({base:.6g} -> {cur:.6g}, "
                         f"limit {100 * threshold:.0f}%)")
                else:
                    note(f"{bench}: {run_name} {key} {base:.6g} -> "
                         f"{cur:.6g} ({-100 * drop:+.1f}%)")
    if compared == 0:
        fail("baseline comparison matched zero throughput counters")


def write_step_summary(threshold):
    """Appends the bench-delta table to $GITHUB_STEP_SUMMARY, if set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path or not summary_rows:
        return
    lines = ["## Bench deltas", ""]
    ratios = [r for r in summary_rows if r[0] == "ratio"]
    deltas = [r for r in summary_rows if r[0] == "baseline"]
    if ratios:
        lines += ["### Ratio and count invariants", "",
                  "| bench | ratio | required | measured | |",
                  "|---|---|---|---|---|"]
        for _, bench, subject, required, measured, _, ok in ratios:
            mark = "✅" if ok else "❌"
            lines.append(f"| {bench} | {subject} | {required} | {measured} "
                         f"| {mark} |")
        lines.append("")
    if deltas:
        lines += [f"### Current vs committed baseline "
                  f"(limit -{100 * threshold:.0f}%)", "",
                  "| bench | counter | baseline | current | delta | |",
                  "|---|---|---|---|---|---|"]
        for _, bench, subject, base, cur, delta, ok in deltas:
            mark = "✅" if ok else "❌"
            lines.append(f"| {bench} | {subject} | {base} | {cur} | {delta} "
                         f"| {mark} |")
        lines.append("")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="directory holding the just-produced "
                             "BENCH_*.json reports")
    parser.add_argument("--baseline", default=None,
                        help="directory holding committed baseline "
                             "BENCH_*.json reports")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="maximum tolerated fractional throughput drop "
                             "vs baseline (default 0.25)")
    args = parser.parse_args()

    current = load_reports(args.current)
    if not current:
        print(f"no BENCH_*.json reports in {args.current}", file=sys.stderr)
        return 1

    ratio_invariants(current)
    if args.baseline:
        baseline = load_reports(args.baseline)
        if not baseline:
            fail(f"no BENCH_*.json baselines in {args.baseline}")
        else:
            baseline_regressions(baseline, current, args.threshold)

    write_step_summary(args.threshold)
    if failures:
        print(f"\n{len(failures)} bench check(s) failed")
        return 1
    print("\nall bench checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
