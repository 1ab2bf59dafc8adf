#!/usr/bin/env python3
"""Measures how steady the benchmark is, the way the driver does: runs every
workload on ten seeds as the driver would (`run.py --workload W --seed N
--seconds run_seconds --trace 0`) and prints, per end-to-end metric, the
median of the ten values and their quartile range as a share of it, beside
the metric's bound. The bounds in BENCHMARK.json were set from this table.

    python3 benchmark/spread.py [--first-seed 1] [--out FILE] [WORKLOAD ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every run's result line to this file")
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()

    runs = {name: [] for name in args.workloads}
    # Seeds outermost: a noisy spell lands on every workload, not on one.
    for seed in range(args.first_seed, args.first_seed + SEEDS):
        for name in args.workloads:
            done = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", str(seed), "--seconds",
                                   str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit("spread: %s failed on seed %d" % (name, seed))
            runs[name].append(json.loads(done.stdout.splitlines()[-1]))
            print("seed %d %s done" % (seed, name), file=sys.stderr)

    worst = 0.0
    print("%-16s %-12s %14s %8s %6s" % ("workload", "metric", "median", "spread", "bound"))
    for name, results in runs.items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("%-16s %-12s %14.6f %7.2f%% %5.0f%%" % (
                name, m["name"], statistics.median(values), 100 * spread, 100 * m["bound"]))
    print("largest spread (setup_s aside) is %.2f of its bound" % worst)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
