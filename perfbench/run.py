#!/usr/bin/env python3
"""Build natbench from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first call configures and builds
perfbench/ (which pulls in libnatscale from the parent directory) under
$CARGO_TARGET_DIR, default `.bench_build`; later calls only re-check the
build.  Extra flags (--size, --gen-seed, --corrupt-expected, ...) are passed
through to natbench.  The build log goes to stderr, natbench's two JSON lines
to stdout, so the last stdout line is the run's summary.  A traced run also
writes its spans to <build dir>/traces/<workload>-seed<N>.json.

Exits non-zero, without a summary line, when the build fails, and with
natbench's own status otherwise (1 = a wrong answer or a failed operation).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configure (once) and build natbench; returns the binary's path."""
    project = os.path.join(out_dir, "perfbench")
    tmp = os.path.join(out_dir, "tmp")  # compiler temporaries stay in the checkout
    os.makedirs(project, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(project, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", project, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
        jobs = str(os.cpu_count() or 1)
        subprocess.run(["cmake", "--build", project, "--target", "natbench", "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)
    return os.path.join(project, "natbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, passthrough = parser.parse_known_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 3

    workdir = os.path.join(out_dir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir] + passthrough
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    # Temporary files, if the library makes any, stay inside the checkout.
    env = dict(os.environ, TMPDIR=workdir)
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: natbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
