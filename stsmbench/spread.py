#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median, quartiles and spread (quartile distance over median)
against its bound from BENCHMARK.json.

Run from the repository root:

    python3 stsmbench/spread.py --seeds 1-10
    python3 stsmbench/spread.py --workloads metro_forecast --seeds 1-5 --json out.json

A run that exits non-zero, prints no result or reports incorrect outputs
stops the script with a non-zero exit.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stderr[-2000:]}")
    result["record"] = json.loads(lines[-2])["record"]
    result["record"]["wall_s"] = wall
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    summary = {}
    for workload in workloads:
        results = [run(bench["command"], workload, s, bench["run_seconds"])
                   for s in seed_list(args.seeds)]
        shares = {r["failed"] / r["attempted"] for r in results}
        walls = [r["record"]["wall_s"] for r in results]
        print(f"{workload}: {len(results)} runs, failed shares {sorted(shares)}, "
              f"wall {min(walls):.0f}-{max(walls):.0f} s")
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO WIDE")
            print(f"  {name:22} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {100 * spread:5.1f}%  bound {100 * bound:4.0f}%  {verdict}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "values": values}
        summary[workload]["records"] = [r["record"] for r in results]
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
