#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  It configures and builds
perfbench/ (a CMake project that compiles the simulator libraries from
src/) into .bench_build/perfbench in Release mode, then runs
rampage_perfbench with the same arguments.  With --trace 1 the spans
go to .bench_build/spans/<workload>-seed<N>.jsonl.

The benchmark's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Build output goes to stderr.
A failed build, a timed-out run or a run that prints no result exits
with a non-zero code and prints no result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "rampage_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def cached_source_dir():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    if cached_source_dir() not in (None, BENCH_DIR):
        shutil.rmtree(BUILD_DIR)  # a build tree of another checkout
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", BUILD_DIR, "--target",
                "rampage_perfbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d and no result"
             % proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
