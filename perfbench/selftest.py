#!/usr/bin/env python3
"""Quick self-test of the benchmark (about a minute, most of it the build).

    python3 perfbench/selftest.py

For every workload at --size tiny it checks that
  * an untraced run is correct and emits exactly BENCHMARK.json's end-to-end
    metrics, all non-zero, plus a record line with the environment stamp;
  * a traced run is correct and emits exactly the per-layer metrics;
  * a run against a deliberately wrong expected answer (--corrupt-expected)
    reports correct=false and exits non-zero;
and that the runner, copied into a directory without the library sources,
fails without printing a result.  Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV_KEYS = {"nproc", "simd_isa", "compiler", "build_type", "search_threads",
            "daemon_workers", "daemon_engine_threads", "seed", "gen_seed"}


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def check(condition, what):
    if not condition:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    for workload in (w["name"] for w in spec["workloads"]):
        status, lines = run(workload, "0")
        check(status == 0 and lines, f"{workload}: untraced run exits 0")
        summary = json.loads(lines[-1])
        check(sorted(summary) == ["attempted", "correct", "failed", "metrics"],
              f"{workload}: summary has exactly the contract's keys")
        check(summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1,
              f"{workload}: every operation correct")
        check(list(summary["metrics"]) == end_to_end,
              f"{workload}: emits every end-to-end metric")
        check(all(m["value"] > 0 for m in summary["metrics"].values()),
              f"{workload}: end-to-end metrics are non-zero")
        record = json.loads(lines[0])["natbench_record"]
        check(ENV_KEYS <= set(record["env"]), f"{workload}: record carries the environment stamp")

        status, lines = run(workload, "1")
        summary = json.loads(lines[-1])
        check(status == 0 and summary["correct"], f"{workload}: traced run is correct")
        check(list(summary["metrics"]) == per_layer, f"{workload}: emits every per-layer metric")

        status, lines = run(workload, "0", "--corrupt-expected")
        summary = json.loads(lines[-1]) if lines else {"correct": True}
        check(status != 0 and not summary["correct"],
              f"{workload}: a wrong expected answer fails the run")

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=build)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, env=env, capture_output=True,
                              text=True, timeout=600)
        check(done.returncode != 0 and '"correct"' not in done.stdout,
              "without the library sources the runner fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
