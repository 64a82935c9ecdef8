#!/usr/bin/env python3
"""Run benchmark workloads over several seeds and keep every run's record.

    python3 perfbench/collect.py --out results.jsonl [--workloads a,b]
                                 [--seeds 1-10] [--trace 0|1] [--seconds S]

Calls perfbench/run.py once per (workload, seed), alternating workloads, and
appends the run's record line (environment stamp, metrics, errors) to --out
as JSON lines.  Defaults come from BENCHMARK.json.  Feed two such files to
perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", args.trace]
            run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            records = [line for line in run.stdout.splitlines()
                       if line.startswith('{"natbench_record"')]
            status = "ok" if run.returncode == 0 else f"exit {run.returncode}"
            print(f"{workload} seed {seed}: {status}", file=sys.stderr)
            if run.returncode != 0:
                failures += 1
                sys.stderr.write(run.stderr[-2000:])
            with open(args.out, "a") as out:
                for line in records:
                    out.write(line + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
