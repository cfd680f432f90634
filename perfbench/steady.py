#!/usr/bin/env python3
"""Steadiness mode of the repository benchmark.

Runs perfbench/run.py repeatedly, one seed per round, alternating the order
of the workloads from round to round, and prints for every workload and
end-to-end metric the median, the quartiles and the spread (interquartile
range as a share of the median) next to the metric's bound in
BENCHMARK.json. A spread at or below a third of the bound reads "steady",
up to the bound "within", above it "WIDE".

With --trace it also makes one traced run per workload and round and
reports runtime.tracing.overhead_pct, which each traced run measures from
its paired traced and untraced jobs.

    python3 perfbench/steady.py --rounds 10 [--first-seed 1]
        [--workloads a,b] [--trace] [--out summary.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    timed = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for round_index in range(args.rounds):
        seed = args.first_seed + round_index
        order = workloads if round_index % 2 == 0 else workloads[::-1]
        for workload in order:
            timed[workload].append(run_once(workload, seed, args.seconds, 0))
            if args.trace:
                traced[workload].append(
                    run_once(workload, seed, args.seconds, 1))
        print(f"round {round_index + 1}/{args.rounds} (seed {seed}) done",
              flush=True)

    summary = {}
    for workload in workloads:
        print(f"\n{workload}: {args.rounds} runs")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        rows = {}
        for m in spec["end_to_end"]:
            values = [run[m["name"]] for run in timed[workload]]
            median, q1, q3, spread = describe(values)
            bound = m["bound"]
            verdict = ("steady" if spread <= bound / 3 else
                       "within" if spread <= bound else "WIDE")
            if m["name"] == "setup_s":
                verdict += " (spread not gated)"
            print(f"  {m['name']:<20} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.3f}  {verdict}")
            rows[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound,
                               "values": values}
        if args.trace:
            values = [run["runtime.tracing.overhead_pct"]
                      for run in traced[workload]]
            median, q1, q3, _ = describe(values)
            print(f"  tracing overhead: median {median:.2f}% "
                  f"(quartiles {q1:.2f}% .. {q3:.2f}%)")
            rows["runtime.tracing.overhead_pct"] = {
                "median": median, "q1": q1, "q3": q3, "values": values}
        summary[workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
