#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Run each workload N times, each run with its own seed, and print every
end-to-end metric's median, quartiles and quartile spread ((Q3 - Q1) /
median) against its bound in BENCHMARK.json:

    python3 perfbench/steadiness.py --runs 10 --out first.json
    python3 perfbench/steadiness.py --runs 10 --out second.json

Compare two such sets of runs of one commit: for every (workload, metric)
the two medians must differ by at most the bound, as a share of the first,
in either direction:

    python3 perfbench/steadiness.py --compare first.json second.json

A spread above the bound or a median drift beyond it fails the check
(exit 1). Spreads above a third of the bound are flagged as too close to it.
Every operation of every run must succeed: a failed operation in any run
fails the check, and so do two sets whose failed counts differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(results, bench):
    failures = 0
    for workload, runs in results.items():
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        print(f"\n{workload}: {len(runs)} runs, {failed} of {attempted} "
              f"operations failed{' FAIL' if failed else ''}")
        failures += 1 if failed else 0
        print(f"  {'metric':<15} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = stats.quartile_spread(values)
            flag = ""
            if spread > spec["bound"]:
                flag = "FAIL"
                failures += 1
            elif spread > spec["bound"] / 3:
                flag = "near bound"
            print(f"  {name:<15} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {spec['bound']:>6} {flag}")
    return failures


def compare(first, second, bench):
    failures = 0
    for workload in first:
        failed = [sum(r["failed"] for r in runs[workload])
                  for runs in (first, second)]
        same = failed[0] == failed[1]
        failures += 0 if same else 1
        print(f"\n{workload}: failed operations first {failed[0]} second "
              f"{failed[1]} {'ok' if same else 'FAIL'}")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in second[workload])
            moved = stats.drift(a, b)
            ok = moved <= spec["bound"]
            failures += 0 if ok else 1
            print(f"  {name:<15} first {a:>12.6g} second {b:>12.6g} "
                  f"moved {moved:>8.4f} (bound {spec['bound']}) "
                  f"{'ok' if ok else 'FAIL'}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", help="write the raw results here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    bench = load_bench()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        failures = compare(sets[0], sets[1], bench)
        return 1 if failures else 0

    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    results = {}
    for workload in workloads:
        results[workload] = []
        for i in range(args.runs):
            seed = args.seed_base + i
            results[workload].append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if summarize(results, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
