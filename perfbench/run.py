#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The engine libraries under src/ and the benchmark program under
perfbench/src are compiled (Release) into .bench_build/perfbench on the first
run. The program's output is passed through; its last line is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports every
end-to-end metric of BENCHMARK.json, --trace 1 every per-layer metric.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"engine sources not found under {ROOT / 'src'}")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                log(f"build step {step[:2]} failed: {error}")
                return False
            if done.returncode != 0:
                log(f"build step {step[:2]} exited with {done.returncode}")
                return False
    return BINARY.is_file()


def expected_metrics(trace):
    """Names of the metrics BENCHMARK.json expects in this mode, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace == 1 else "end_to_end"
    return {m["name"]: m["unit"] for m in spec.get(key, [])}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not build():
        return 2

    command = [str(BINARY), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        log(f"benchmark exited with {done.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("benchmark printed no result line")
        return 1

    # Every metric BENCHMARK.json names must be reported with its unit.
    expected = expected_metrics(args.trace)
    if expected is not None:
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        if reported != expected:
            missing = sorted(set(expected.items()) ^ set(reported.items()))
            log(f"metrics differ from BENCHMARK.json: {missing}")
            result["correct"] = False
            result["attempted"] += 1
            result["failed"] += 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
