#!/usr/bin/env python3
"""Steadiness mode: runs each workload N times with distinct seeds and
prints, per metric, the median, the quartiles and the spread (quartile
distance over the median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--trace 0]
                                [--workloads a,b] [--save out.json] [--same-seed]
    python3 perfbench/steady.py --compare first.json second.json

Run it from the repository root. It invokes the benchmark exactly as
BENCHMARK.json's `command` does and checks every result line: the four
keys, the metric names and units of the selected list, a non-zero
`attempted`, and `failed == 0`. Quartiles are Python's
`statistics.quantiles(values, n=4)`. Simulated metrics and counts are
reported as `exact` when they repeat, and flagged when they do not.

`--compare` reads two sets saved with `--save` (same code, run at
different times) and prints, per workload and end-to-end metric, how much
worse the second set's median is than the first's, against the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), elapsed


def check(result, defs, workload, seed):
    keys = {"correct", "attempted", "failed", "metrics"}
    problems = []
    if set(result) != keys:
        problems.append(f"keys {sorted(result)}")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(f"failed={result.get('failed')} correct={result.get('correct')}")
    metrics = result.get("metrics", {})
    want = {d["name"]: d["unit"] for d in defs}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, unit in want.items():
        if name in metrics and metrics[name].get("unit") != unit:
            problems.append(f"{name}: unit {metrics[name].get('unit')} != {unit}")
    if problems:
        raise SystemExit(f"{workload} seed {seed}: " + "; ".join(problems))


def quartile_spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, values[0], values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def compare(bench, first_path, second_path):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    worst = 0.0
    print(f"  {'workload':<20} {'metric':<16} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'bound':>6}")
    for workload in first:
        if workload not in second:
            continue
        for d in bench["end_to_end"]:
            a = statistics.median(first[workload][d["name"]])
            b = statistics.median(second[workload][d["name"]])
            worse = (b - a) / a if d["better"] == "lower" else (a - b) / a
            worst = max(worst, worse / d["bound"])
            flag = "ok" if worse <= d["bound"] else "TOO FAR"
            print(f"  {workload:<20} {d['name']:<16} {a:>12.6g} {b:>12.6g} {worse:>+9.4f} {d['bound']:>6} {flag}")
    print(f"\nworst (second worse than first) / bound: {worst:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--save", default=None)
    ap.add_argument("--same-seed", action="store_true",
                    help="use --seed-base for every run, to check that simulated figures repeat")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two sets saved with --save, and run nothing")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        compare(bench, *args.compare)
        return
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]

    saved = {}
    worst = 0.0
    for workload in workloads:
        values = {d["name"]: [] for d in defs}
        walls = []
        for i in range(args.runs):
            seed = args.seed_base + (0 if args.same_seed else i)
            result, elapsed = run_once(bench["command"], workload, seed, seconds, args.trace)
            check(result, defs, workload, seed)
            walls.append(elapsed)
            for d in defs:
                values[d["name"]].append(result["metrics"][d["name"]]["value"])
            print(f"  {workload} seed {seed}: {elapsed:.1f} s wall", file=sys.stderr)
        saved[workload] = values
        print(f"\n{workload}: {args.runs} runs, {statistics.median(walls):.1f} s wall each (median)")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for d in defs:
            v = values[d["name"]]
            med, q1, q3, spread = quartile_spread(v)
            bound = d.get("bound")
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            elif len(set(v)) == 1:
                flag = "exact"
            print(f"  {d['name']:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    if not args.trace:
        print(f"\nworst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
