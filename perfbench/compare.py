#!/usr/bin/env python3
"""Summarize one result set, or compare two, against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl] [--trace]

Reads the record lines perfbench/collect.py writes.  For every workload x
end-to-end metric (x per-layer metric with --trace) it prints each side's
median and quartiles (Python's statistics.quantiles, n=4) and the spread,
(q3 - q1) / median.

With one set the verdict says whether the spread is within the metric's
bound ("within bound") and below a third of it ("steady").  With two sets,
runs are paired by seed and the verdict follows the benchmark's rules:

  regressed   the change's median is worse than the base's by more than the bound
  unresolved  the base's own spread exceeds the bound and not every change run
              beats every base run
  improved    the change wins at least 90% of the seed pairs and the medians
              differ by more than the base's quartile spread
  same        none of the above

Per-layer metrics have no bound: they get the numbers and "-" as verdict.
Records whose environment (nproc, SIMD ISA, compiler, build type, threads)
differs between the two sets are flagged before the table.  Exits 1 when any
metric regressed or any run was incorrect, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV_KEYS = ("nproc", "simd_isa", "compiler", "build_type", "search_threads",
            "daemon_workers", "daemon_engine_threads")


def load(path, trace):
    """{workload: {seed: record}} for the records of the requested mode."""
    runs = {}
    with open(path) as source:
        for line in source:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)["natbench_record"]
            if record["trace"] != trace:
                continue
            runs.setdefault(record["workload"], {})[record["env"]["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment_notes(base, change):
    notes = []
    for name, side in (("base", base), ("change", change)):
        envs = {tuple(r["env"].get(k) for k in ENV_KEYS)
                for runs in side.values() for r in runs.values()}
        if len(envs) > 1:
            notes.append(f"{name}: runs from {len(envs)} different environments")
    if change:
        base_envs = {tuple(r["env"].get(k) for k in ENV_KEYS)
                     for runs in base.values() for r in runs.values()}
        change_envs = {tuple(r["env"].get(k) for k in ENV_KEYS)
                       for runs in change.values() for r in runs.values()}
        if base_envs != change_envs:
            notes.append("base and change ran in different environments: "
                         f"{sorted(base_envs)} vs {sorted(change_envs)}")
    return notes


def spread_of(q1, median, q3):
    if median:
        return (q3 - q1) / median
    return 0.0 if q1 == q3 else float("inf")


def verdict(metric, base_runs, change_runs):
    base = [r["metrics"][metric["name"]]["value"] for r in base_runs.values()]
    q1, median, q3 = quartiles(base)
    spread = spread_of(q1, median, q3)
    bound = metric.get("bound")
    lower = metric.get("better", "lower") == "lower"
    row = {"base": (median, q1, q3, spread)}
    if change_runs is None:
        if bound is None:
            row["verdict"] = "-"
        elif spread <= bound / 3:
            row["verdict"] = "steady"
        elif spread <= bound:
            row["verdict"] = "within bound"
        else:
            row["verdict"] = "TOO NOISY"
        return row

    change = [r["metrics"][metric["name"]]["value"] for r in change_runs.values()]
    c1, c_median, c3 = quartiles(change)
    row["change"] = (c_median, c1, c3, spread_of(c1, c_median, c3))
    if bound is None:
        row["verdict"] = "-"
        return row

    def better(a, b):
        return a < b if lower else a > b

    def value(run):
        return run["metrics"][metric["name"]]["value"]

    worse = (c_median - median) / median if lower else (median - c_median) / median
    seeds = sorted(set(base_runs) & set(change_runs))
    wins = sum(better(value(change_runs[s]), value(base_runs[s])) for s in seeds)
    all_better = all(better(c, b) for c in change for b in base)
    if worse > bound:
        row["verdict"] = "REGRESSED"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif seeds and wins >= 0.9 * len(seeds) and abs(c_median - median) > (q3 - q1):
        row["verdict"] = "improved"
    else:
        row["verdict"] = "same"
    row["worse"] = worse
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--trace", action="store_true",
                        help="compare the per-layer metrics of traced runs")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    base = load(args.base, args.trace)
    change = load(args.change, args.trace) if args.change else None
    if not base:
        print(f"no {'traced' if args.trace else 'untraced'} records in {args.base}")
        return 1

    for note in environment_notes(base, change or {}):
        print(f"warning: {note}")

    bad = False
    header = f"{'workload':16} {'metric':26} {'base median [q1, q3]':>36} {'spread':>7}"
    if change is not None:
        header += f" {'change median [q1, q3]':>36} {'spread':>7} {'worse':>7}"
    print(header + "  verdict")
    for workload in sorted(base):
        incorrect = [s for side in (base, change or {}) for s, r in side.get(workload, {}).items()
                     if not r["correct"]]
        if incorrect:
            bad = True
            print(f"{workload}: incorrect runs at seeds {sorted(set(incorrect))}")
        if change is not None and workload not in change:
            print(f"{workload}: missing from {args.change}")
            continue
        for metric in metrics:
            row = verdict(metric, base[workload],
                          change[workload] if change is not None else None)
            median, q1, q3, spread = row["base"]
            line = (f"{workload:16} {metric['name']:26} "
                    f"{median:12.6g} [{q1:10.6g}, {q3:10.6g}] {spread:7.1%}")
            if change is not None:
                c_median, c1, c3, c_spread = row["change"]
                worse = f"{row['worse']:7.1%}" if "worse" in row else f"{'':7}"
                line += f" {c_median:12.6g} [{c1:10.6g}, {c3:10.6g}] {c_spread:7.1%} {worse}"
            print(f"{line}  {row['verdict']}")
            bad = bad or row["verdict"] == "REGRESSED"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
