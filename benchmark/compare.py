#!/usr/bin/env python3
"""Compares two result files of benchmark/run.py against the bounds in
BENCHMARK.json.

    python3 benchmark/compare.py OLD.json NEW.json

Per (workload, end-to-end metric) prints one of
    unresolved    the quartile range [q1, q3] of either side is wider than the
                  bound, so the samples can call it neither changed nor
                  unchanged (unless every NEW sample lies beyond every OLD one)
    worse         NEW's median is worse than OLD's by more than the bound
    better        better by more than the bound
    within-bound  medians within the bound of each other
then every exact per-layer count that changed. Every ratio is NEW over OLD,
printed beside both values. Exits 1 if any pair is worse, an exact count
changed, or a job failed in NEW that did not in OLD.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(old, new, better, bound):
    """The label for one pair; `old` and `new` are summaries with min, q1,
    median, q3 and max."""
    sign = 1.0 if better == "lower" else -1.0
    # By what share of OLD's median NEW is worse (negative: better).
    worse_by = sign * (new["median"] - old["median"]) / old["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (old, new))
    # With every NEW sample on one side of every OLD sample the order is
    # clear whatever the spread.
    apart = new["min"] > old["max"] or new["max"] < old["min"]
    if spread > bound and not apart:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "within-bound"


def compare(old, new, spec):
    """Returns (report lines, whether anything is worse)."""
    lines, failed = [], False
    for side, doc in (("OLD", old), ("NEW", new)):
        c = doc["context"]
        lines.append("%s: commit %s, seed %s, %s reps, steal share %.2f%%%s" % (
            side, c["commit"], c["seed"], c["reps"], 100 * c["steal_share"],
            "  <- contaminated: the hypervisor took over 1% of the CPU time"
            if c["steal_share"] > 0.01 else ""))
    lines.append("%-16s %-12s %14s %14s %9s  %-12s %s" % (
        "workload", "metric", "old median", "new median", "new/old", "verdict", "bound"))
    for name, old_w in old["workloads"].items():
        new_w = new["workloads"].get(name)
        if new_w is None:
            lines.append("%-16s missing from NEW" % name)
            failed = True
            continue
        for m in spec["end_to_end"]:
            o, n = old_w["end_to_end"][m["name"]], new_w["end_to_end"][m["name"]]
            label = verdict(o, n, m["better"], m["bound"])
            failed |= label == "worse"
            lines.append("%-16s %-12s %14.6f %14.6f %9.4f  %-12s %.0f%% %s" % (
                name, m["name"], o["median"], n["median"], n["median"] / o["median"],
                label, 100 * m["bound"], m["unit"]))
        if new_w["failed_share"] > old_w["failed_share"]:
            failed = True
            lines.append("%-16s failed_share %14.6f %14.6f            worse" % (
                name, old_w["failed_share"], new_w["failed_share"]))

    same_input = all(old["context"][k] == new["context"][k] for k in ("seed", "smoke"))
    if not same_input:
        lines.append("\nseed or scale differ: exact counts not compared")
        return lines, failed
    changed = []
    for name, old_w in old["workloads"].items():
        new_layers = new["workloads"].get(name, {}).get("per_layer", {})
        for metric, o in old_w["per_layer"].items():
            n = new_layers.get(metric)
            if o["exact"] and (n is None or n["value"] != o["value"]):
                changed.append("%-16s %-36s %s -> %s" % (
                    name, metric, o["value"], "missing" if n is None else n["value"]))
    lines.append("\nexact counts changed: %d" % len(changed))
    lines.extend(changed)
    return lines, failed or bool(changed)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    docs = []
    for path in sys.argv[1:]:
        with open(path) as f:
            docs.append(json.load(f))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lines, failed = compare(docs[0], docs[1], spec)
    print("\n".join(lines))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
