#!/usr/bin/env python3
"""The armine benchmark: six workloads, each a fresh `armine` process per
repetition with tracing off, plus one traced run of the layer probe.

    python3 benchmark/run.py [--seed 4242] [--reps 9] [--out FILE] [--smoke]
        every workload, repetitions interleaved round-robin, then the probes;
        prints every metric, writes the result file, exits 1 on a failed check.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
        one workload for S seconds; the last line of stdout is one JSON object
        (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).

Metric names, units, directions and bounds live in BENCHMARK.json; what each
means and which layer should move which is in benchmark/README.md.
"""

import argparse
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

# The generator seed is part of the workload, not of the run: with the run
# seed fed to the Quest generator the pattern table changes, and the same job
# costs 1.8 s to 4.5 s on dense_default (13 passes and 3.2M rules on one seed
# in eight) and +-15% on the sparse ones, which no bound could resolve. The
# run seed instead relabels the items and reorders the transactions: every
# byte of the file, every hash bucket, trie edge and bitmap changes, while N,
# the candidates of each pass and the lattice stay those pinned in
# fingerprints.json. io_roundtrip alone hands the run seed to `armine gen`,
# because there generating is the job and its cost follows N.
GEN_SEED = 4242
DEFAULT_SEED = 4242
SETUPS = 3
WARMUP_TIMEOUT_S = 120.0
HELP_SPAWNS = 9

SPARSE = []  # the CLI defaults: T15.I6, 1000 items, 2000 patterns
DENSE = ["--items", "250", "--patterns", "120"]  # the bench crate's universe


def _mine(*flags):
    return ["mine", "--input", "{data}", *flags]


def _parallel(*flags):
    return ["parallel", "--input", "{data}", *flags]


# name -> dataset size, generator flags (None: the job generates), the
# job's armine commands, and the probe section that decomposes it. Why each
# exists is in BENCHMARK.json.
WORKLOADS = {
    "sparse_default": {
        "n": 1000,
        "smoke_n": 250,
        "gen": SPARSE,
        "job": [_mine("--min-support", "0.01", "--max-k", "4", "--rules", "0.5")],
        "section": "serial",
    },
    "dense_default": {
        "n": 20000,
        "smoke_n": 1000,
        "gen": DENSE + ["--avg-len", "10", "--pattern-len", "4"],
        "job": [_mine("--min-support", "0.005", "--rules", "0.5")],
        "section": "serial",
    },
    "native_cd": {
        "n": 100000,
        "smoke_n": 5000,
        "gen": SPARSE,
        "job": [_parallel("--algorithm", "cd", "--procs", "2", "--backend", "native",
                          "--counter", "trie", "--min-support", "0.01", "--max-k", "4")],
        "section": "native",
    },
    "native_idd": {
        "n": 50000,
        "smoke_n": 2500,
        "gen": SPARSE,
        "job": [_parallel("--algorithm", "idd", "--procs", "2", "--backend", "native",
                          "--counter", "vertical", "--min-support", "0.01", "--max-k", "4")],
        "section": "native",
    },
    "sim_hd_p64": {
        "n": 25600,
        "smoke_n": 1280,
        "gen": DENSE,
        "job": [_parallel("--algorithm", "hd", "--procs", "64", "--group-threshold", "500",
                          "--page-size", "100", "--min-support", "0.015", "--max-k", "5")],
        "section": "sim",
    },
    "io_roundtrip": {
        "n": 1000000,
        "smoke_n": 50000,
        "gen": None,
        "job": [["gen", "--out", "{data}", "--transactions", "{n}", "--seed", "{seed}"],
                _mine("--min-support", "0.02", "--max-k", "1")],
        "section": "io",
    },
}

# Per-layer counts that must repeat bit for bit between two runs of the same
# code on the same seed; compare.py lists every one that changed.
EXACT = re.compile(
    r"io\.file_bytes|apriori\.(candidates_k2|candidates_deep|passes)|rules\.count"
    r"|counter\.\w+\.(inserts|traversal_steps|distinct_leaf_visits|candidate_checks"
    r"|intersection_words|hits)"
    r"|parallel\.(messages_sent|bytes_sent)"
    r"|mpsim\.(messages_sent|bytes_sent|virtual_response_us)|metrics\.series"
)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------- statistics

def summary(samples):
    """Sample count, min, quartiles and max, quartiles as the driver takes
    them (statistics.quantiles, n=4)."""
    if len(samples) < 2:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "min": min(samples), "q1": q1, "median": med,
            "q3": q3, "max": max(samples), "samples": list(samples)}


def self_times(spans):
    """Per span name: calls, total seconds, and self seconds (duration minus
    the part its child spans cover)."""
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    rows = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        row = rows.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur / 1e9
        row["self_s"] += (dur - child_ns.get(s["id"], 0)) / 1e9
    return rows


def chrome_trace(spans, workload):
    """Chrome trace-event JSON (opens in Perfetto or chrome://tracing)."""
    events = [{
        "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X", "pid": 1, "tid": 1,
        "ts": s["start_ns"] / 1e3, "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
        "args": {"id": s["id"], "parent": s["parent"], "workload": workload,
                 "on_path": s["on_path"], **s["labels"]},
    } for s in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ------------------------------------------------------------- output checks

def parse_fingerprint(text):
    """What a job printed, reduced to the numbers that must be right."""
    def first(pattern, convert=int):
        m = re.search(pattern, text)
        return convert(m.group(1)) if m else None

    head = re.search(r"(\d+) transactions, min count (\d+)", text)
    return {
        "transactions": int(head.group(1)) if head else None,
        "min_count": int(head.group(2)) if head else None,
        # `armine mine` prints "C candidates -> F frequent", `armine parallel`
        # only the candidates.
        "passes": [[int(c), int(f) if f else None] for c, f in re.findall(
            r"pass +\d+: +(\d+) candidates(?: -> +(\d+) frequent)?", text)],
        "itemsets": first(r"(\d+) frequent itemsets"),
        "rules": first(r"(\d+) rules at confidence"),
        "virtual_ms": first(r"virtual response time ([\d.]+) ms", str),
    }


def mismatches(got, want):
    """Fields of the printed fingerprint `got` that differ from the reference
    `want`; fields the reference leaves null are not compared."""
    bad = [k for k in ("transactions", "min_count", "itemsets", "rules", "virtual_ms")
           if want.get(k) is not None and got.get(k) != want[k]]
    if len(got["passes"]) != len(want["passes"]):
        bad.append("passes")
    for k, ((c, f), (want_c, want_f)) in enumerate(zip(got["passes"], want["passes"]), 1):
        if f is not None:
            ok = (c, f) == (want_c, want_f)
        else:
            # A parallel run prints the item universe as pass 1's candidates,
            # the serial reference the items that occur.
            ok = k == 1 or c == want_c
        if not ok:
            bad.append("pass %d" % k)
    return bad


# ------------------------------------------------------------------ processes

def spawn(argv, out_path, timeout):
    """Runs one process to its end. Returns (exit code, wall s, cpu s, peak
    RSS MB); the exit code is None after a timeout."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timed_out = not timer.is_alive()
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def build():
    """Builds the program and the probe from source, release profile.
    Returns their paths."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    probe_target = os.path.join(target, "benchmark-probe")
    base = ["cargo", "build", "--release", "--offline", "--quiet"]
    for extra in (["-p", "armine-cli", "--bin", "armine", "--target-dir", target],
                  ["--manifest-path", os.path.join(HERE, "probe", "Cargo.toml"),
                   "--target-dir", probe_target]):
        done = subprocess.run(base + extra, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("benchmark: build failed: %s" % " ".join(base + extra))
    return (os.path.join(target, "release", "armine"),
            os.path.join(probe_target, "release", "armine-benchmark-probe"))


def relabel(src, dst, seed):
    """Writes `src` to `dst` with the item ids permuted and the transactions
    reordered, both drawn from `seed`."""
    rng = random.Random(seed)
    with open(src) as f:
        rows = [line.split(":", 1)[1].split() for line in f]
    ids = sorted({item for row in rows for item in row}, key=int)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    renamed = dict(zip(ids, shuffled))
    rng.shuffle(rows)
    with open(dst, "w") as f:
        f.write("".join("%d: %s\n" % (tid, " ".join([renamed[i] for i in row]))
                        for tid, row in enumerate(rows, 1)))


def in_child(fn, *args):
    """Runs fn(*args) in a forked child, so that its memory never counts as
    this process's: at exec Linux folds the spawner's peak RSS into the
    child's ru_maxrss, and every job is spawned from here."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fn(*args)
            code = 0
        finally:
            os._exit(code)
    if os.waitpid(pid, 0)[1] != 0:
        sys.exit("benchmark: %s failed" % fn.__name__)


class Bench:
    """One workload at one seed: its input file, reference and samples."""

    def __init__(self, name, seed, smoke, tmp, armine, probe):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.w = WORKLOADS[name]
        self.n = self.w["smoke_n" if smoke else "n"]
        self.armine, self.probe_bin = armine, probe
        self.tmp = tmp
        self.data = os.path.join(tmp, name + ".txt")
        self.out = os.path.join(tmp, name + ".out")
        self.setups, self.samples, self.problems = [], [], []
        self.attempted = self.failed = 0
        self.expected = None
        self.timeout = WARMUP_TIMEOUT_S

    def fill(self, argv):
        return [a.format(data=self.data, n=self.n, seed=self.seed) for a in argv]

    def job(self):
        """The workload's commands, one fresh process each, tracing off.
        Returns the sample; `bad` lists what was wrong with it."""
        wall = cpu = rss = 0.0
        bad = []
        for argv in self.w["job"]:
            code, w, c, r = spawn([self.armine] + self.fill(argv), self.out, self.timeout)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            if code != 0:
                bad.append("timeout" if code is None else "exit %d" % code)
                break
        with open(self.out, errors="replace") as f:
            text = f.read()
        sample = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "bad": bad,
                  "printed": parse_fingerprint(text), "tail": text[-600:]}
        self.attempted += 1
        if self.expected is not None:
            self.judge(sample)
        return sample

    def judge(self, sample):
        """Counts the job as failed if it exited non-zero, timed out or
        printed a fingerprint other than the reference."""
        bad = sample["bad"] or mismatches(sample["printed"], self.expected)
        if bad:
            self.failed += 1
            self.problems.append(
                "%s: job failed (%s): expected %s, it printed:\n%s"
                % (self.name, ", ".join(bad), json.dumps(self.expected), sample["tail"]))
        sample["bad"] = bad

    def setup(self, pinned, times):
        """Dataset generation through the end of the warm-up job, `times`
        over; then fixes the reference every later job is checked against."""
        warm = []
        for _ in range(times):
            gen_s = 0.0
            if self.w["gen"] is not None:
                base = self.data + ".base"
                code, gen_s, _, _ = spawn(
                    [self.armine, "gen", "--out", base, "--transactions", str(self.n),
                     "--seed", str(GEN_SEED)] + self.w["gen"], self.out, WARMUP_TIMEOUT_S)
                if code != 0:
                    sys.exit("benchmark: armine gen failed for %s" % self.name)
                in_child(relabel, base, self.data, self.seed)
                os.remove(base)
            warm.append(self.job())
            self.setups.append(gen_s + warm[-1]["wall_s"])
        self.timeout = 10 * statistics.median(s["wall_s"] for s in warm)

        key = self.name + ("@smoke" if self.smoke else "")
        if self.w["gen"] is None:
            key += "@seed%d" % self.seed
        if key in pinned:
            self.expected = dict(pinned[key])
        else:
            self.expected = self.probe("reference")["reference"]
        if self.expected.get("virtual_ms") is None:
            # Virtual time follows the partition, so the seed: e2e runs check
            # that it repeats, the traced run recomputes it.
            self.expected["virtual_ms"] = warm[0]["printed"]["virtual_ms"]
        for sample in warm:
            self.judge(sample)

    def probe(self, section):
        """One probe process; returns its JSON (metrics, reference, spans)."""
        flags = [a for argv in self.w["job"] for a in self.fill(argv)[1:]]
        done = subprocess.run([self.probe_bin, section] + flags + ["--scratch", self.tmp],
                              stdout=subprocess.PIPE, timeout=WARMUP_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("benchmark: probe %s failed on %s" % (section, self.name))
        return json.loads(done.stdout)

    def end_to_end(self):
        """The end-to-end metrics of BENCHMARK.json, each a summary."""
        out = {"setup_s": summary(self.setups)}
        for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
            out[metric] = summary([s[metric] for s in self.samples])
        out["tx_per_s"] = summary([self.n / s["wall_s"] for s in self.samples])
        return out

    def traced(self, declared):
        """The separate traced run: per-layer metrics and spans from the
        probe, its reference checked against the job's and the pinned one."""
        doc = self.probe(self.w["section"])
        bad = mismatches(doc["reference"], self.expected)
        self.attempted += 1
        if bad:
            self.failed += 1
            self.problems.append("%s: the probe's reference %s differs from %s in %s"
                                 % (self.name, json.dumps(doc["reference"]),
                                    json.dumps(self.expected), ", ".join(bad)))
        metrics = doc["metrics"]
        help_walls = [spawn([self.armine, "help"], self.out, WARMUP_TIMEOUT_S)[1]
                      for _ in range(HELP_SPAWNS)]
        metrics["cli.help_s"] = statistics.median(help_walls)
        wall_s = statistics.median(s["wall_s"] for s in self.samples)
        path_s = sum((s["end_ns"] - s["start_ns"]) / 1e9 for s in doc["spans"] if s["on_path"])
        metrics["probe.path_s"] = path_s
        metrics["probe.coverage"] = path_s / wall_s
        metrics["probe.unattributed_s"] = self_times(doc["spans"])["probe"]["self_s"]
        unknown = sorted(set(metrics) - set(declared))
        if unknown:
            sys.exit("benchmark: probe metrics missing from BENCHMARK.json: %s" % unknown)
        return metrics, doc["spans"]


# -------------------------------------------------------------------- reports

def print_self_times(name, spans):
    print("\n%s: probe self time by span" % name)
    print("  %-28s %6s %12s %12s" % ("span", "calls", "total s", "self s"))
    rows = self_times(spans)
    for span, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print("  %-28s %6d %12.6f %12.6f" % (span, row["calls"], row["total_s"], row["self_s"]))


def print_layers(name, metrics, declared):
    print("\n%s: per-layer metrics (one traced probe run)" % name)
    for metric in declared:
        if metric in metrics:
            print("  %-36s %18.9g %s" % (metric, metrics[metric], declared[metric]))


def print_end_to_end(by_workload, units):
    print("\nend-to-end (fresh process per repetition, tracing off)")
    print("%-16s %-12s %14s %-6s %3s %12s %12s %12s %12s"
          % ("workload", "metric", "median", "unit", "n", "min", "q1", "q3", "max"))
    for name, e2e in by_workload.items():
        for metric, row in e2e.items():
            print("%-16s %-12s %14.6f %-6s %3d %12.6f %12.6f %12.6f %12.6f"
                  % (name, metric, row["median"], units[metric], row["n"], row["min"],
                     row["q1"], row["q3"], row["max"]))


def traced_report(bench, layer_units):
    """Runs the workload's traced probe, writes its Chrome trace, prints the
    self-time and per-layer tables. Returns the per-layer metrics."""
    measured, spans = bench.traced(layer_units)
    path = os.path.join(RESULTS, "trace-%s.json" % bench.name)
    with open(path, "w") as f:
        json.dump(chrome_trace(spans, bench.name), f)
    print("%s: %d spans written to %s" % (bench.name, len(spans), os.path.relpath(path, ROOT)))
    print_self_times(bench.name, spans)
    print_layers(bench.name, measured, layer_units)
    return measured


def cpu_ticks():
    """(stolen, total) jiffies of all CPUs since boot."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def context(args, started_load, started_ticks):
    def tool(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    nproc = os.cpu_count()
    stolen, total = (now - then for now, then in zip(cpu_ticks(), started_ticks))
    return {
        "nproc": nproc,
        # Two native ranks on one core time-slice: wall numbers of the
        # native_* workloads then stand as counts only.
        "oversubscribed": nproc < 2,
        "load_1min_start": started_load, "load_1min_end": os.getloadavg()[0],
        # Share of all CPU time the hypervisor gave to other guests during the
        # run: wall numbers of a run with a large share are contaminated.
        "steal_share": stolen / total,
        "commit": tool(["git", "rev-parse", "HEAD"]), "rustc": tool(["rustc", "--version"]),
        "profile": "release", "seed": args.seed, "reps": args.reps, "smoke": args.smoke,
        "python": sys.version.split()[0],
        # The floor under every peak_rss_mb (see in_child).
        "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------- modes

def run_one(args, e2e_units, layer_units, pinned, binaries, tmp):
    """The driver's contract: one workload, one JSON object as the last line."""
    started_ticks = cpu_ticks()
    bench = Bench(args.workload, args.seed, args.smoke, tmp, *binaries)
    # Only the end-to-end run reports setup_s, so only it repeats the set-up.
    bench.setup(pinned, 1 if args.trace or args.smoke else SETUPS)
    deadline = time.perf_counter() + args.seconds
    # A traced run needs wall_s only as the base of probe.coverage.
    while len(bench.samples) < 3 or (not args.trace and time.perf_counter() < deadline):
        bench.samples.append(bench.job())
    if args.trace:
        measured = traced_report(bench, layer_units)
        # The contract wants every per-layer metric from every workload: a
        # layer the workload never enters did no work and took no time.
        metrics = {name: {"value": measured.get(name, 0), "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        e2e = bench.end_to_end()
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in e2e_units.items()}
        print_end_to_end({bench.name: e2e}, e2e_units)
    stolen, total = (now - then for now, then in zip(cpu_ticks(), started_ticks))
    print("steal share during this run: %.2f%% (over 1%%: a contaminated run)"
          % (100 * stolen / total))
    for problem in bench.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return bench.failed == 0


def run_all(args, e2e_units, layer_units, pinned, binaries, tmp):
    """Every workload: set-up, `reps` rounds in round-robin order (so one
    noisy spell on the machine lands on every workload, not on one), then one
    traced probe run each."""
    started_load, started_ticks = os.getloadavg()[0], cpu_ticks()
    benches = [Bench(name, args.seed, args.smoke, tmp, *binaries) for name in WORKLOADS]
    for bench in benches:
        bench.setup(pinned, 1 if args.smoke else SETUPS)
        print("%s: set up in %.2f s" % (bench.name, statistics.median(bench.setups)),
              file=sys.stderr)
    for rep in range(args.reps):
        for bench in benches:
            bench.samples.append(bench.job())
        print("round %d of %d done" % (rep + 1, args.reps), file=sys.stderr)

    doc = {"schema": 1, "claim": None, "workloads": {}}
    for bench in benches:
        measured = traced_report(bench, layer_units)
        e2e = bench.end_to_end()
        doc["workloads"][bench.name] = {
            "transactions": bench.n, "attempted": bench.attempted, "failed": bench.failed,
            "failed_share": bench.failed / bench.attempted,
            "fingerprint": bench.expected,
            "end_to_end": {k: {"unit": e2e_units[k], **v} for k, v in e2e.items()},
            "per_layer": {k: {"value": v, "unit": layer_units[k], "exact": bool(EXACT.fullmatch(k))}
                          for k, v in sorted(measured.items())},
        }
    doc["context"] = context(args, started_load, started_ticks)

    print_end_to_end({name: w["end_to_end"] for name, w in doc["workloads"].items()}, e2e_units)
    for name, w in doc["workloads"].items():
        print("%-16s %-12s %14.6f %-6s %3d" % (name, "failed_share", w["failed_share"],
                                              "share", w["attempted"]))
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("\nresult written to %s" % os.path.relpath(args.out, ROOT))
    problems = [p for bench in benches for p in bench.problems]
    for problem in problems:
        print(problem, file=sys.stderr)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--reps", type=int, default=9, help="rounds when running every workload")
    ap.add_argument("--out", default=os.path.join(RESULTS, "latest.json"))
    ap.add_argument("--smoke", action="store_true",
                    help="small datasets, one set-up, 2 reps: every check in under a minute")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.smoke:
        args.reps = min(args.reps, 2)

    spec = load_spec()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        pinned = json.load(f)
    binaries = build()
    os.makedirs(RESULTS, exist_ok=True)
    # Inside the checkout, removed on exit with every dataset in it.
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="tmp-") as tmp:
        mode = run_one if args.workload else run_all
        ok = mode(args, e2e_units, layer_units, pinned, binaries, tmp)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
