#!/usr/bin/env python3
"""Validate a metrics-registry JSON document (BENCH_*.json / --metrics-json).

Checks the schema contract of ``armine_metrics::json::BenchDocument``:

* ``schema_version`` is exactly 1;
* ``benchmark`` is a non-empty string and ``metrics`` a non-empty list;
* every series has a name and canonical label keys only;
* the kind is ``counter`` or ``gauge``, the only two the registry has;
* counters are non-negative integers, gauges are numbers;
* with ``--require-run-labels``, every series also carries the
  run-identifying base labels a ``ParallelRun`` snapshot stamps
  (``algorithm``, ``backend``, ``counter``, ``fault_plan``, ``procs``).

Usage: check_bench_json.py FILE [--require-run-labels]
"""

import json
import sys

# Mirrors armine_metrics::LABEL_KEYS (canonical order).
LABEL_KEYS = [
    "algorithm",
    "backend",
    "counter",
    "fault_plan",
    "procs",
    "scenario",
    "rank",
    "pass",
]
RUN_BASE_LABELS = {"algorithm", "backend", "counter", "fault_plan", "procs"}
KINDS = {"counter", "gauge"}


def fail(msg):
    print(f"check_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def check_series(i, m):
    where = f"metrics[{i}] ({m.get('name', '?')})"
    if not m.get("name"):
        fail(f"{where}: missing name")
    kind = m.get("kind")
    if kind not in KINDS:
        fail(f"{where}: unknown kind {kind!r}")
    labels = m.get("labels")
    if not isinstance(labels, dict):
        fail(f"{where}: labels must be an object")
    unknown = set(labels) - set(LABEL_KEYS)
    if unknown:
        fail(f"{where}: unknown label keys {sorted(unknown)}")
    if list(labels) != [k for k in LABEL_KEYS if k in labels]:
        fail(f"{where}: labels not in canonical order: {list(labels)}")
    if kind == "counter":
        v = m.get("value")
        if not isinstance(v, int) or v < 0:
            fail(f"{where}: counter value must be a non-negative integer, got {v!r}")
    elif not isinstance(m.get("value"), (int, float)):
        fail(f"{where}: gauge value must be a number")
    return labels


def main():
    args = [a for a in sys.argv[1:] if a != "--require-run-labels"]
    require_run_labels = "--require-run-labels" in sys.argv[1:]
    if len(args) != 1:
        fail(f"usage: {sys.argv[0]} FILE [--require-run-labels]")
    path = args[0]
    with open(path) as f:
        d = json.load(f)
    if d.get("schema_version") != 1:
        fail(f"{path}: schema_version must be 1, got {d.get('schema_version')!r}")
    if not d.get("benchmark"):
        fail(f"{path}: missing benchmark name")
    metrics = d.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        fail(f"{path}: metrics must be a non-empty list")
    for i, m in enumerate(metrics):
        labels = check_series(i, m)
        if require_run_labels:
            missing = RUN_BASE_LABELS - set(labels)
            if missing:
                fail(
                    f"metrics[{i}] ({m['name']}): missing run base labels "
                    f"{sorted(missing)}"
                )
    print(
        f"{path}: ok — {d['benchmark']!r}, {len(metrics)} series, schema v1"
    )


if __name__ == "__main__":
    main()
