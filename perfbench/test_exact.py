#!/usr/bin/env python3
"""Checks the benchmark's own contract: exact counters and metric names.

For every workload, in both modes:
  - the metric names and units equal BENCHMARK.json's lists, in order;
  - every counter the run marks exact (its diagnostics line lists them)
    repeats bit for bit across two runs at one seed;
  - each exact counter that depends on the generated inputs changes at
    another seed (a few are fixed by the workload's shape, listed below);
  - the traced run's attribution residuals stay within their stated
    bounds (RESIDUAL_BOUNDS);
  - no operation failed and every answer checked out.

    python3 perfbench/test_exact.py [--seconds 2] [--seed 7]

Run from the repository root; builds like run.py. Exits 1 on a failure.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Exact counters set by the workload's shape, not by its inputs: the
# shard count, the planner's choice for fixed read lengths and budgets,
# the ingest script's fixed positions, and serve_exact's link count,
# which is 0 at every seed because bench_serve's query shapes never
# resume a walk through a link (exact slices match to their end; the
# contains walk stops at its changed base).
SEED_INVARIANT = {
    "shard.fanout",
    "plan.seeded_share",
    "shard.sources_per_query",
    "shard.dirty_query_share",
    "core.link_traversals",
}

# Stated bounds (percent, either sign) of the traced run's residuals:
# how far the attributed stages fall from the time they account for.
RESIDUAL_BOUNDS = {
    "serve.attribution_residual_pct": 10.0,  # stages + overhead vs round trip
    "core.approx.residual_pct": 5.0,  # shard calls vs the family's Execute
}


def measure(workload, seed, seconds, trace):
    code, lines = run.run_once(workload, seed, seconds, trace)
    if code != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d trace %d: exit %d" %
                           (workload, seed, trace, code))
    diag = json.loads(lines[-2])["diagnostics"]
    result = json.loads(lines[-1])
    return diag, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if not run.build():
        print("build failed")
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected_names = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            diag_a, a = measure(workload, args.seed, args.seconds, trace)
            _, b = measure(workload, args.seed, args.seconds, trace)
            _, c = measure(workload, args.seed + 1, args.seconds, trace)
            names = [(k, v["unit"]) for k, v in a["metrics"].items()]
            if names != expected_names[trace]:
                failures.append("%s: metric names differ from BENCHMARK.json"
                                % tag)
            for result in (a, b, c):
                if not result["correct"] or result["failed"] != 0:
                    failures.append("%s: failed operations" % tag)
            if trace:
                for name, bound in RESIDUAL_BOUNDS.items():
                    value = a["metrics"][name]["value"]
                    if value != 0 and abs(value) > bound:
                        failures.append("%s: %s = %.2f%% exceeds +-%g%%"
                                        % (tag, name, value, bound))
            exact = diag_a["exact"]
            if not exact:
                failures.append("%s: no exact counters" % tag)
            for name in exact:
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                vc = c["metrics"][name]["value"]
                if va != vb:
                    failures.append("%s: %s not repeatable: %r vs %r"
                                    % (tag, name, va, vb))
                if name not in SEED_INVARIANT and va == vc:
                    failures.append("%s: %s unchanged across seeds: %r"
                                    % (tag, name, va))
            print("%s: %d exact counters checked" % (tag, len(exact)),
                  flush=True)
    for failure in failures:
        print("FAIL", failure)
    print("ok" if not failures else "%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
