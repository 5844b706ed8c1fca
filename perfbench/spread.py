#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

    python3 perfbench/spread.py --workload des-calibrated --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out set1.json
    python3 perfbench/spread.py --compare set1.json set2.json

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per end-to-end metric, the median, the quartiles
from statistics.quantiles(values, n=4) and the spread (q3 - q1) / median.
A spread passes when it is below a third of the metric's bound; setup_s is
exempt. --compare reads two saved sets and checks that no metric's second
median is worse than the first by more than its bound.
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


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: an output check failed")
    return wall, {k: v["value"] for k, v in result["metrics"].items()}


def summarize(spec, values_by_metric):
    ok = True
    for m in spec["end_to_end"]:
        values = values_by_metric[m["name"]]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        limit = m["bound"] / 3
        verdict = "exempt" if m["name"] == "setup_s" else (
            "ok" if spread < limit else "WIDE")
        ok &= verdict != "WIDE"
        print(f"  {m['name']:<18} median {med:<14.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} spread {spread:8.4f} (< {limit:.4f}) "
              f"{verdict}")
    return ok


def compare(spec, first, second):
    ok = True
    for workload in first:
        print(workload)
        for m in spec["end_to_end"]:
            a = statistics.median(first[workload][m["name"]])
            b = statistics.median(second[workload][m["name"]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"  {m['name']:<18} {a:<14.6g} -> {b:<14.6g} "
                  f"worse by {worse:+.4f} (bound {m['bound']}) {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", help="save the values as JSON")
    ap.add_argument("--compare", nargs=2, metavar="SET")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(spec, *sets) else 1

    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    saved = {}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for seed in parse_seeds(args.seeds):
            wall, metrics = run(workload, seed, spec["run_seconds"])
            walls.append(wall)
            for name in values:
                values[name].append(metrics[name])
        print(f"{workload}: {len(walls)} runs, {sum(walls):.0f} s, "
              f"longest {max(walls):.1f} s")
        ok &= summarize(spec, values)
        saved[workload] = values
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
