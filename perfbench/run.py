#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N    # every workload
    python3 perfbench/run.py --test                      # the logic tests

Run it from the repository root. It configures and builds perfbench/ as a
CMake project (Release) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the perfbench binary once per workload.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when every output
check passed. When the build or a run fails before measuring, it exits
non-zero without printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["solve-large", "des-calibrated", "paper-fig1", "des-observed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def run_one(workload, seed, seconds, traced):
    """Runs one workload; returns (exit code, parsed result or None)."""
    scratch = os.path.join(build_dir(), f"scratch-{os.getpid()}-{workload}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(build_dir(), "perfbench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={1 if traced else 0}", f"--scratch-dir={scratch}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 2, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode not in (0, 1) or not lines:
        log(f"{workload}: perfbench exited {proc.returncode}")
        return 2, None
    result = json.loads(lines[-1])
    names = sorted(result["metrics"])
    if names != sorted(expected_metrics(traced)):
        log(f"{workload}: metrics {names} do not match BENCHMARK.json")
        return 2, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.test:
        if not build(["perfbench_test"]):
            return 1
        return subprocess.run([os.path.join(build_dir(), "perfbench_test")],
                              stdout=sys.stderr).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build(["perfbench"]):
        return 1

    traced = args.trace == 1
    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds, traced)
        if result is not None:
            print(json.dumps(result))
        return code

    # Every workload in turn; the result line merges them, metric names
    # prefixed with their workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(workload, args.seed, args.seconds, traced)
        worst = max(worst, code)
        if result is None:
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
        log(f"{workload}: " + ("correct" if result["correct"] else "FAILED"))
    if worst == 2:
        return 2
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
