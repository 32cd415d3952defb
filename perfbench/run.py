#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the e-STREAMHUB simulation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--threads <n>]

Workloads: kernels-churn, elastic-ramp (see README.md here).
The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the repository's src/ libraries; it is built in Release mode under
.bench_build/perfbench the first time and brought up to date on every run.
Build output goes to standard error. The benchmark's own report goes to
standard output, and its last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 the span trace is
also written to .bench_build/traces/ as Chrome trace-event JSON.

The exit code is 0 only when the benchmark ran and every output check
passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("kernels-churn", "elastic-ramp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the e2e binary; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e",
                  "--parallel", "4"])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "e2e")


def last_json(lines):
    """Parses the result object from the benchmark's last output line."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int,
                        help="engine worker threads (default per workload)")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.threads is not None:
        command += ["--threads", str(args.threads)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-file", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the benchmark timed out", file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    result = last_json(lines)
    if result is None:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result (exit code {proc.returncode})",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
