#!/usr/bin/env python3
"""Steering-loop benchmark: build the harness from this checkout's sources and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload live_steer --seed 1 --seconds 10 --trace 0

Workloads: live_steer, catch_up, relay_sse (perfbench/steer_bench.cpp
describes each). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones, setup_s among them: the median of several cold
start-ups, each in its own process, so every sample pays the one-time
start-up work a real server pays. With --trace 1 they are the per-layer
ones, and the replay spans are written to .bench_build/perfbench/.
Build output and diagnostics go to standard error. The build and every
output stay inside the checkout, under .bench_build/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "steer_bench")
WORKLOADS = ("live_steer", "catch_up", "relay_sse")
SETUP_ROUNDS = 15
# A run must end within 180 s once the harness is built.
RUN_BUDGET_S = 165.0


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "web", "frontend.hpp")):
        die("the library sources (src/) are missing from this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for command in (
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ):
        try:
            done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            die(f"cannot run {command[0]}: {error}")
        if done.returncode != 0:
            die("build failed: " + " ".join(command))


def run_harness(arguments, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("out of time")
    try:
        done = subprocess.run([BINARY] + arguments, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("harness did not finish in time: " + " ".join(arguments))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die(f"harness failed with exit code {done.returncode}: " + " ".join(arguments))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = ["--workload", args.workload]
    setups = []
    if not args.trace:
        setups = [run_harness(workload + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_ROUNDS)]
    measure = workload + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace)]
    if args.trace:
        trace_file = f"trace-{args.workload}-{args.seed}.json"
        measure += ["--trace-out", os.path.join(BUILD_DIR, trace_file)]
    result = run_harness(measure, deadline)
    if setups:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
