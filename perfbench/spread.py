#!/usr/bin/env python3
# Copyright 2026 The claks Authors.
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads churn,analytic --seeds 10 [--trace 0]

For every workload x metric it prints the median over the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of its bound
is flagged. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(config, workload, seed, trace):
    """Returns the result line and the detail line of one run."""
    command = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1]), json.loads(lines[-2])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    metrics = config["end_to_end"] if args.trace == 0 else config["per_layer"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in config["workloads"]])
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, detail = run_once(config, workload, seed, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s seed %d: incorrect result" %
                                 (workload, seed))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s steal %s" % (workload, seed, json.dumps(
                {k: round(v[-1], 4) for k, v in values.items()}),
                detail.get("host_steal_share")), flush=True)
        for m in metrics:
            vals = values[m["name"]]
            median = statistics.median(vals)
            if len(vals) >= 2 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(median)
            else:
                spread = 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
            print("  %-12s %-28s median %-14.6g spread %.4f%s%s" % (
                workload, m["name"], median, spread,
                "" if bound is None else "  bound %.2f" % bound, flag),
                flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
