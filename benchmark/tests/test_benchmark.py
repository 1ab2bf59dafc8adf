"""Self-tests of the benchmark's own logic; they build and run nothing.

    python3 -m unittest discover benchmark/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402
import run  # noqa: E402

MINE_STDOUT = """\
1000 transactions, min count 10: 1291 frequent itemsets in 4 passes (2.66s)
  pass  1:      987 candidates ->      683 frequent (1 scan)
  pass  2:   232903 candidates ->      187 frequent (1 scan)
  pass  3:      220 candidates ->      208 frequent (1 scan)
  pass  4:      213 candidates ->      213 frequent (1 scan)
3461 rules at confidence >= 50%:
  {446, 476} => {313} (sup 2.4%, conf 100.0%)
"""

SIM_STDOUT = """\
HD on 64 simulated Cray T3E processors (25600 transactions, min count 384):
  virtual response time 306.077 ms   (wall 1.36s, 6008 frequent itemsets)
  129 MB moved, compute imbalance 77.2%
  pass  1:      250 candidates, grid 1x64,     2.499 ms
  pass  2:    15753 candidates, grid 32x2,   140.928 ms
"""


class Fingerprints(unittest.TestCase):
    def test_parses_serial_output(self):
        fp = run.parse_fingerprint(MINE_STDOUT)
        self.assertEqual(fp, {
            "transactions": 1000, "min_count": 10, "itemsets": 1291, "rules": 3461,
            "passes": [[987, 683], [232903, 187], [220, 208], [213, 213]],
            "virtual_ms": None})
        with open(os.path.join(run.HERE, "fingerprints.json")) as f:
            pinned = json.load(f)
        self.assertEqual(run.mismatches(fp, pinned["sparse_default"]), [])

    def test_parses_parallel_output(self):
        fp = run.parse_fingerprint(SIM_STDOUT)
        self.assertEqual(fp["passes"], [[250, None], [15753, None]])
        self.assertEqual((fp["transactions"], fp["min_count"], fp["itemsets"]),
                         (25600, 384, 6008))
        self.assertEqual(fp["virtual_ms"], "306.077")
        self.assertIsNone(fp["rules"])

    def test_parallel_pass_one_prints_the_item_universe(self):
        fp = run.parse_fingerprint(SIM_STDOUT)
        want = {"transactions": 25600, "min_count": 384, "itemsets": 6008, "rules": None,
                "passes": [[212, 178], [15753, 1446]], "virtual_ms": "306.077"}
        self.assertEqual(run.mismatches(fp, want), [])

    def test_every_flipped_field_is_a_mismatch(self):
        fp = run.parse_fingerprint(MINE_STDOUT)
        want = run.parse_fingerprint(MINE_STDOUT)
        for field in ("transactions", "min_count", "itemsets", "rules"):
            self.assertEqual(run.mismatches(fp, {**want, field: want[field] + 1}), [field])
        flipped = [list(p) for p in want["passes"]]
        flipped[1][1] += 1
        self.assertEqual(run.mismatches(fp, {**want, "passes": flipped}), ["pass 2"])
        self.assertEqual(run.mismatches(fp, {**want, "passes": want["passes"][:3]}), ["passes"])
        sim = run.parse_fingerprint(SIM_STDOUT)
        self.assertEqual(run.mismatches(sim, {**sim, "virtual_ms": "306.078"}), ["virtual_ms"])

    def test_garbage_output_mismatches(self):
        want = run.parse_fingerprint(MINE_STDOUT)
        self.assertTrue(run.mismatches(run.parse_fingerprint("error: boom\n"), want))


class Statistics(unittest.TestCase):
    def test_quartiles_are_the_drivers(self):
        s = run.summary([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual((s["n"], s["min"], s["max"], s["median"]), (5, 1.0, 5.0, 3.0))
        # statistics.quantiles(n=4), exclusive method: positions 1.5 and 4.5.
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))
        self.assertEqual(s["samples"], [5.0, 1.0, 3.0, 2.0, 4.0])

    def test_single_sample(self):
        s = run.summary([2.5])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2.5, 2.5, 2.5))

    def test_self_time_is_duration_minus_children(self):
        def span(i, parent, name, start, end):
            return {"id": i, "parent": parent, "name": name, "start_ns": start, "end_ns": end,
                    "on_path": False, "labels": {}}
        spans = [span(0, None, "probe", 0, 10_000_000_000),
                 span(1, 0, "a", 1_000_000_000, 4_000_000_000),
                 span(2, 1, "b", 2_000_000_000, 3_000_000_000),
                 span(3, 0, "a", 5_000_000_000, 6_000_000_000)]
        rows = run.self_times(spans)
        self.assertAlmostEqual(rows["probe"]["self_s"], 6.0)
        self.assertAlmostEqual(rows["a"]["total_s"], 4.0)
        self.assertAlmostEqual(rows["a"]["self_s"], 3.0)
        self.assertEqual(rows["a"]["calls"], 2)
        self.assertAlmostEqual(rows["b"]["self_s"], 1.0)
        events = run.chrome_trace(spans, "w")["traceEvents"]
        self.assertEqual([e["ph"] for e in events], ["X"] * 4)
        self.assertEqual((events[2]["ts"], events[2]["dur"]), (2e6, 1e6))


def quartiles(q1, median, q3, lowest=None, highest=None):
    return {"min": q1 if lowest is None else lowest, "q1": q1, "median": median, "q3": q3,
            "max": q3 if highest is None else highest}


class Bounds(unittest.TestCase):
    def test_lower_is_better(self):
        old = quartiles(0.99, 1.0, 1.01)
        self.assertEqual(compare.verdict(old, quartiles(1.10, 1.11, 1.12), "lower", 0.1),
                         "worse")
        self.assertEqual(compare.verdict(old, quartiles(1.08, 1.09, 1.10), "lower", 0.1),
                         "within-bound")
        self.assertEqual(compare.verdict(old, quartiles(0.79, 0.80, 0.81), "lower", 0.1),
                         "better")

    def test_higher_is_better(self):
        old = quartiles(99.0, 100.0, 101.0)
        self.assertEqual(compare.verdict(old, quartiles(85.0, 86.0, 87.0), "higher", 0.1),
                         "worse")
        self.assertEqual(compare.verdict(old, quartiles(119.0, 120.0, 121.0), "higher", 0.1),
                         "better")
        self.assertEqual(compare.verdict(old, quartiles(94.0, 95.0, 96.0), "higher", 0.1),
                         "within-bound")

    def test_wide_spread_is_unresolved_not_unchanged(self):
        old = quartiles(0.8, 1.0, 1.2)
        self.assertEqual(compare.verdict(old, quartiles(0.99, 1.0, 1.01), "lower", 0.1),
                         "unresolved")

    def test_overlapping_gain_is_unresolved(self):
        old = quartiles(0.7, 1.0, 1.1)
        self.assertEqual(compare.verdict(old, quartiles(0.6, 0.8, 0.9), "lower", 0.1),
                         "unresolved")

    def test_bimodal_three_sample_set_up_is_unresolved_not_worse(self):
        # dense_default set-ups of two runs of one commit on the 2-vCPU box.
        old = quartiles(1.74, 1.76, 2.30)
        self.assertEqual(compare.verdict(old, quartiles(2.20, 2.33, 2.40), "lower", 0.25),
                         "unresolved")

    def test_wide_but_fully_apart_is_resolved(self):
        old = quartiles(0.8, 1.0, 1.2)
        self.assertEqual(compare.verdict(old, quartiles(1.5, 1.8, 2.1), "lower", 0.1), "worse")
        self.assertEqual(compare.verdict(old, quartiles(0.3, 0.4, 0.5), "lower", 0.1), "better")
        self.assertEqual(compare.verdict(old, quartiles(1.5, 1.8, 2.1, lowest=1.1), "lower", 0.1),
                         "unresolved")

    def test_report_flags_changed_exact_counts_and_failures(self):
        spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}

        def doc(count, failed_share):
            return {"context": {"seed": 1, "smoke": False, "commit": None, "reps": 9,
                                "steal_share": 0.0}, "workloads": {"w": {
                "failed_share": failed_share,
                "end_to_end": {"wall_s": quartiles(1.0, 1.0, 1.0)},
                "per_layer": {"rules.count": {"value": count, "exact": True},
                              "rules.generate_s": {"value": count / 7, "exact": False}}}}}
        self.assertFalse(compare.compare(doc(5, 0.0), doc(5, 0.0), spec)[1])
        lines, failed = compare.compare(doc(5, 0.0), doc(6, 0.0), spec)
        self.assertTrue(failed)
        self.assertTrue(any("rules.count" in line and "5 -> 6" in line for line in lines))
        self.assertTrue(compare.compare(doc(5, 0.0), doc(5, 0.1), spec)[1])


class Contract(unittest.TestCase):
    """BENCHMARK.json against the limits the driver refuses a file for."""

    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()

    def test_keys_and_workloads(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertIn(self.spec["run_seconds"], range(1, 61))
        self.assertEqual(self.spec["paths"], [os.path.basename(run.HERE)])

    def test_metric_names_units_and_bounds(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("lower", "higher"))
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 <= m["bound"] <= 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual([(m["unit"], m["better"]) for m in setup], [("s", "lower")])
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))
        self.assertLessEqual(len(self.spec["per_layer"]), 128)

    def test_baseline_metrics_are_declared(self):
        """Every metric a full run emitted is in BENCHMARK.json, and every
        declared one was emitted by some workload."""
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        layers = {m["name"] for m in self.spec["per_layer"]}
        for name in ("run-a.json", "run-b.json"):
            with open(os.path.join(run.HERE, "baseline", name)) as f:
                doc = json.load(f)
            self.assertIsNone(doc["claim"])
            self.assertEqual(list(doc["workloads"]), list(run.WORKLOADS))
            seen = set()
            for w in doc["workloads"].values():
                self.assertEqual(set(w["end_to_end"]), e2e)
                self.assertEqual(w["failed_share"], 0)
                # A job's ru_maxrss is never below its spawner's peak RSS.
                self.assertGreater(w["end_to_end"]["peak_rss_mb"]["min"],
                                   1.5 * doc["context"]["driver_rss_mb"])
                seen |= set(w["per_layer"])
                for metric, row in w["per_layer"].items():
                    self.assertEqual(row["exact"], bool(run.EXACT.fullmatch(metric)), metric)
            self.assertEqual(seen, layers)

    def test_exact_pattern_names_only_declared_counts(self):
        exact = [m for m in self.spec["per_layer"] if run.EXACT.fullmatch(m["name"])]
        self.assertEqual(len(exact), 29)
        for m in exact:
            self.assertFalse(re.search(r"_s$|_per_|ratio", m["name"]), m["name"])


if __name__ == "__main__":
    unittest.main()
