#!/usr/bin/env python3
"""Builds the spine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_exact --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds the
library and the spinebench binary into .bench_build/ (later calls only
re-check the build). Its standard output passes through unchanged; the
last line is the result object. --trace 1 is the separate traced run: it
reports the per-layer metrics and writes its spans to
.bench_build/traces/<workload>-<seed>.jsonl.

A/A mode runs the same code on several seeds, twice, and prints each
metric's quartiles per set, spread ((Q3 - Q1) / median) and set-to-set
gap (how much worse set 2's median is) against the bound in
BENCHMARK.json (not gated):

    python3 perfbench/run.py --aa --workload map_reads --runs 10 --seconds 30
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "spinebench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds spinebench; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", CMAKE_DIR, "--target", "spinebench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_once(workload, seed, seconds, trace):
    """Runs spinebench once; returns (exit code, stdout lines)."""
    work = os.path.join(BUILD, "work")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", work]
    if trace:
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.jsonl" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("spinebench: run exceeded %d s; killed" % RUN_TIMEOUT_S)
        return 124, []
    return proc.returncode, out.splitlines()


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def a_a(args):
    """Two sets of runs over the same seeds; prints spread and gap."""
    bounds = load_bounds()
    sets = []
    for s in range(2):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, lines = run_once(args.workload, seed, args.seconds, 0)
            if code != 0 or not lines:
                log("run failed: set %d seed %d exit %d" % (s, seed, code))
                return 1
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            log("set %d seed %d: %s" % (s, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()})))
        sets.append(values)
    print("%-16s %-32s %-32s %8s %8s %8s  %s" % (
        "metric", "set 1: Q1 / median / Q3", "set 2: Q1 / median / Q3",
        "spread1", "spread2", "gap", "bound"))
    for name in sets[0]:
        quartiles = [statistics.quantiles(values, n=4)
                     for values in (sets[0][name], sets[1][name])]
        spreads = [(q3 - q1) / q2 if q2 else 0.0 for q1, q2, q3 in quartiles]
        spec = bounds.get(name, {})
        first, second = quartiles[0][1], quartiles[1][1]
        gap = (second - first) / first if first else 0.0
        if spec.get("better", "lower") != "lower":
            gap = -gap
        print("%-16s %-32s %-32s %8.3f %8.3f %8.3f  %s" % (
            name, " / ".join("%.5g" % q for q in quartiles[0]),
            " / ".join("%.5g" % q for q in quartiles[1]), spreads[0],
            spreads[1], gap, spec.get("bound", "-")))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_exact", "map_reads", "ingest_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--aa", action="store_true",
                        help="A/A mode: two sets of --runs seeded runs")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    if not build():
        log("spinebench: build failed")
        return 1
    if args.aa:
        return a_a(args)
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
