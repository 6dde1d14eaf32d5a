#!/usr/bin/env python3
"""Steadiness check for the tcf benchmark.

Runs every workload of BENCHMARK.json repeatedly, one seed per round and
in alternating workload order, and prints per end-to-end metric the
median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound. It then re-runs each workload with the first seed and
checks that the work counters repeat exactly. Run from the repository
root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--seconds S] [--fixed-seed]
                                [--trace 0|1]

Exits non-zero when a run fails, reports correct=false, a spread (other
than setup_s) exceeds a third of its bound, the failed share differs
between runs of one workload, or the counters do not repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counters = {}
    for line in lines:
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
    return result, counters


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--fixed-seed", action="store_true",
                        help="use the first seed in every round, to tell "
                        "machine noise from input variation")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    results = {w: [] for w in workloads}
    first_counters = {}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.first_seed + (0 if args.fixed_seed else r)
            result, counters = run_once(w, seed, seconds, args.trace)
            results[w].append(result)
            if r == 0:
                first_counters[w] = counters
            print(f"run {r + 1}/{args.runs} {w} seed {seed}: "
                  f"correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)

    ok = True
    for w in workloads:
        runs = results[w]
        print(f"\n== {w} ({len(runs)} runs, {seconds} s each)")
        if not all(r["correct"] for r in runs):
            print("  FAIL: a run reported correct=false")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share: {sorted(shares)}")
        if len(shares) != 1:
            ok = False
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            median, q1, q3, rel = spread(values)
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and rel > bound / 3:
                flag = "  > bound/3"
                ok = False
            bound_text = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{rel:8.4f} {bound_text}{flag}")

    print("\n== work counters, repeated with the first seed")
    for w in workloads:
        _, counters = run_once(w, args.first_seed, seconds, args.trace)
        diff = sorted(k for k in set(counters) | set(first_counters[w])
                      if counters.get(k) != first_counters[w].get(k))
        print(f"  {w}: {'repeat exactly' if not diff else 'DIFFER: ' + ', '.join(diff)}")
        if diff:
            ok = False

    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
