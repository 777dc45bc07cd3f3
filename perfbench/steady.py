#!/usr/bin/env python3
"""Steadiness check: run one workload under several seeds and report, for
each metric, the median, the quartiles and the spread (distance between
the quartiles as a share of the median), against the bounds in
BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --workload ingest_inline --runs 10
    python3 perfbench/steady.py --workload paced_fleet --runs 5 --first-seed 100

Prints one line per metric and, with --out, writes every run's metrics and
the summary as JSON.

Compare two such files, made from the same code at different times:

    python3 perfbench/steady.py --compare set-1.json set-2.json

The benchmark counts as steady when every spread, setup_s included, is
within its bound and each median moved by less than its bound in either
direction: the two sets could have been run in the other order.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def compare(paths, bounds):
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append(json.load(f))
    steady = True
    for name, bound in bounds.items():
        medians, spreads = [], []
        for data in sets:
            median, _, _, s = spread([r["metrics"][name] for r in data["runs"]])
            medians.append(median)
            spreads.append(s)
        change = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
        ok = max(spreads) <= bound and abs(change) <= bound
        steady &= ok
        print(f"{name:20s} bound {bound:.2f}  spreads {spreads[0]:.3f} {spreads[1]:.3f}  "
              f"median change {change:+.3f}  {'ok' if ok else 'UNSTEADY'}")
    return steady


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        sys.exit(0 if compare(args.compare, bounds) else 1)
    if not args.workload:
        parser.error("--workload or --compare is required")

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "wall_s": round(wall, 2), "metrics": values})
        print(f"seed {seed}: {wall:.1f} s", file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median, q1, q3, s = spread(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": s}
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"bound {bound:.2f} {'ok' if s < bound / 3 else 'WIDE'}"
        print(f"{name:40s} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
              f"spread {s:7.4f}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
