#!/usr/bin/env python3
"""Builds the program and the perfbench binary from source, then runs one
workload and relays its result.

    python3 perfbench/run.py --workload table1-fast --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, and is incremental: only the
first run in a checkout compiles everything.  Build output goes to
stderr; stdout carries the binary's output, whose last line is the
result object {"correct", "attempted", "failed", "metrics"}.  Flags the
wrapper does not know (--tiny, --plant-wrong-bound, --corpus-seed N) are
passed on to the binary.
"""
import argparse
import os
import shutil
import subprocess
import sys

# The binary must finish inside this many seconds once built.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds the binary and the CLI it times."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "-j", jobs,
            "--target", "perfbench", "cinderella"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found; run from the repository root")

    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "perfbench")
    build_dir = os.path.join(out_dir, "build")
    build(build_dir)

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--cinderella", os.path.join(build_dir, "src", "tools", "cinderella"),
        "--work-dir", os.path.join(out_dir, "work"),
        "--bounds", os.path.join("perfbench", "bounds.json"),
    ] + extra
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
