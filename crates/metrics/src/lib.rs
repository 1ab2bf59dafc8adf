#![warn(missing_docs)]

//! # armine-metrics
//!
//! One labeled metrics registry for every run the workspace produces —
//! sim virtual-time charges, native wall measurements, and fault
//! counters all land in the same named series instead of three disjoint
//! ad-hoc ledgers.
//!
//! The model (after MCSim's metrics design): a metric is a **name**
//! (`armine.<layer>.<noun>[_<unit>]`, see [`names`]) plus a set of
//! **hierarchical labels** drawn from the fixed taxonomy [`LABEL_KEYS`]
//! (`algorithm`, `backend`, `counter`, `fault_plan`, `procs`,
//! `scenario`, `rank`, `pass`). A series is one `(name, labels)` pair
//! carrying a [`MetricValue`]: a monotone `u64` [counter] or an `f64`
//! [gauge].
//!
//! Recording is **lock-free by ownership**: a [`MetricShard`] is owned
//! by exactly one thread (no atomics, no mutexes). A parallel run's rank
//! threads keep plain per-rank ledgers (`CounterStats`, `RankStats`) and
//! the host records them into one shard after the join. A finished shard
//! freezes into a [`MetricsSnapshot`]:
//! sorted, queryable, and exportable as a schema-versioned JSON
//! [`json::BenchDocument`].
//!
//! The registry **observes** existing arithmetic, it never participates
//! in it: recording a value is a host-side map insert, so a simulator's
//! virtual clocks are bit-identical with or without recording (pinned by
//! the golden-fingerprint suite in the workspace root).
//!
//! [counter]: MetricValue::Counter
//! [gauge]: MetricValue::Gauge

pub mod json;
pub mod names;

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The label taxonomy, in canonical serialization order: run-scoped keys
/// first (`algorithm`, `backend`, `counter`, `fault_plan`, `procs`,
/// `scenario`), then the per-rank and per-pass axes. Every label a
/// series carries must use one of these keys — [`Labels::with`] panics
/// on anything else, and CI's `scripts/check_bench_json.py` rejects
/// unknown keys in every written file, so the schema cannot drift
/// silently.
pub const LABEL_KEYS: [&str; 8] = [
    "algorithm",
    "backend",
    "counter",
    "fault_plan",
    "procs",
    "scenario",
    "rank",
    "pass",
];

fn key_index(key: &str) -> Option<usize> {
    LABEL_KEYS.iter().position(|k| *k == key)
}

/// Compares label values numerically when both parse as integers (so
/// `rank=2` sorts before `rank=10`), lexicographically otherwise.
/// Numeric ties break lexicographically (`"01"` vs `"1"`), so distinct
/// strings never compare `Equal` and the ordering stays consistent with
/// string equality.
fn value_cmp(a: &str, b: &str) -> Ordering {
    match (a.parse::<u64>(), b.parse::<u64>()) {
        (Ok(x), Ok(y)) => x.cmp(&y).then_with(|| a.cmp(b)),
        _ => a.cmp(b),
    }
}

/// A canonically ordered set of labels: at most one value per
/// [`LABEL_KEYS`] key, iterated and serialized in taxonomy order
/// regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Labels {
    /// `(index into LABEL_KEYS, value)`, sorted by index, keys unique.
    entries: Vec<(usize, String)>,
}

impl Labels {
    /// The empty label set.
    pub fn new() -> Self {
        Labels::default()
    }

    /// Adds a label (builder style). Panics on a key outside
    /// [`LABEL_KEYS`] or a key already present — both are recording bugs,
    /// not runtime conditions.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl ToString) -> Self {
        let idx = key_index(key)
            .unwrap_or_else(|| panic!("unknown label key {key:?} (taxonomy: {LABEL_KEYS:?})"));
        assert!(
            !self.entries.iter().any(|(i, _)| *i == idx),
            "label key {key:?} set twice"
        );
        let pos = self.entries.partition_point(|(i, _)| *i < idx);
        self.entries.insert(pos, (idx, value.to_string()));
        self
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        let idx = key_index(key)?;
        self.entries
            .iter()
            .find(|(i, _)| *i == idx)
            .map(|(_, v)| v.as_str())
    }

    /// `(key, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &str)> + '_ {
        self.entries
            .iter()
            .map(|(i, v)| (LABEL_KEYS[*i], v.as_str()))
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The union of `self` and `base`. Panics when a key appears in both
    /// — a base-label collision means the recorder mislabeled a series.
    #[must_use]
    pub fn union(&self, base: &Labels) -> Labels {
        let mut out = self.clone();
        for (key, value) in base.iter() {
            out = out.with(key, value);
        }
        out
    }
}

impl PartialOrd for Labels {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Labels {
    fn cmp(&self, other: &Self) -> Ordering {
        let mut a = self.entries.iter();
        let mut b = other.entries.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some((ia, va)), Some((ib, vb))) => {
                    let ord = ia.cmp(ib).then_with(|| value_cmp(va, vb));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
            }
        }
    }
}

/// The value one series carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotone count of events or work units (`u64`, exact).
    Counter(u64),
    /// A point-in-time measurement (last write wins).
    Gauge(f64),
}

impl MetricValue {
    /// The kind name as serialized ("counter" / "gauge").
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
        }
    }
}

/// The recording side of the registry.
///
/// A shard is owned by exactly one recording thread (in a parallel run,
/// the assembly code after the join) — that ownership is the lock-free
/// contract. Recording is a `BTreeMap` upsert.
#[derive(Debug, Clone, Default)]
pub struct MetricShard {
    series: BTreeMap<(String, Labels), MetricValue>,
}

impl MetricShard {
    /// An empty shard.
    pub fn new() -> Self {
        MetricShard::default()
    }

    /// Adds `delta` to the counter `(name, labels)`, creating it at zero.
    /// Panics if the series exists with a different kind.
    pub fn incr(&mut self, name: &str, labels: Labels, delta: u64) {
        match self
            .series
            .entry((name.to_owned(), labels))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("{name} already recorded as a {}", other.kind()),
        }
    }

    /// Sets the gauge `(name, labels)` (last write wins). Panics if the
    /// series exists with a different kind, or on a non-finite value —
    /// the JSON schema has no NaN/Inf, so rejecting at recording time
    /// keeps every snapshot serializable.
    pub fn set_gauge(&mut self, name: &str, labels: Labels, value: f64) {
        assert!(
            value.is_finite(),
            "gauge {name} set to non-finite value {value} — JSON has no NaN/Inf"
        );
        match self
            .series
            .entry((name.to_owned(), labels))
            .or_insert(MetricValue::Gauge(value))
        {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("{name} already recorded as a {}", other.kind()),
        }
    }

    /// Number of series recorded.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Freezes the shard into a sorted snapshot, stamping `base` labels
    /// onto every series (panics if a series already carries one of the
    /// base keys).
    pub fn snapshot(&self, base: &Labels) -> MetricsSnapshot {
        let series = self
            .series
            .iter()
            .map(|((name, labels), value)| MetricSeries {
                name: name.clone(),
                labels: labels.union(base),
                value: *value,
            })
            .collect();
        MetricsSnapshot::from_series(series)
    }
}

/// One `(name, labels) → value` entry of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Metric name (`armine.<layer>.<noun>[_<unit>]`).
    pub name: String,
    /// The series' full label set.
    pub labels: Labels,
    /// The recorded value.
    pub value: MetricValue,
}

/// An immutable, sorted view of a finished registry: what exporters
/// serialize and views query. Ordering is total and deterministic —
/// by name, then by labels in canonical key order with numeric-aware
/// value comparison — so serializing the same run twice yields the same
/// bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    series: Vec<MetricSeries>,
}

impl MetricsSnapshot {
    /// A snapshot over the given series (sorted here; duplicates panic).
    fn from_series(mut series: Vec<MetricSeries>) -> Self {
        series.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        for w in series.windows(2) {
            assert!(
                !(w[0].name == w[1].name && w[0].labels == w[1].labels),
                "duplicate series {} {:?}",
                w[0].name,
                w[0].labels
            );
        }
        MetricsSnapshot { series }
    }

    /// All series, sorted.
    pub fn series(&self) -> &[MetricSeries] {
        &self.series
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Sum of all counter series named `name` whose labels match
    /// `filter`. Non-counter series of that name panic (kind confusion).
    pub fn counter_sum(&self, name: &str, filter: &[(&str, &str)]) -> u64 {
        self.select(name, filter)
            .map(|s| match s.value {
                MetricValue::Counter(v) => v,
                other => panic!("{name} is a {}, not a counter", other.kind()),
            })
            .sum()
    }

    /// The value of the single gauge named `name` matching `filter`;
    /// `None` when no series matches, panics when several do (the filter
    /// under-constrains) or the series is not a gauge.
    pub fn gauge(&self, name: &str, filter: &[(&str, &str)]) -> Option<f64> {
        let mut matches = self.select(name, filter);
        let first = matches.next()?;
        assert!(
            matches.next().is_none(),
            "gauge {name} matched more than one series for {filter:?}"
        );
        match first.value {
            MetricValue::Gauge(v) => Some(v),
            other => panic!("{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Distinct values of label `key` across all series, sorted
    /// numeric-aware.
    pub fn label_values(&self, key: &str) -> Vec<String> {
        let mut values: Vec<String> = self
            .series
            .iter()
            .filter_map(|s| s.labels.get(key).map(str::to_owned))
            .collect();
        values.sort_by(|a, b| value_cmp(a, b));
        values.dedup();
        values
    }

    /// All series named `name` whose labels match every `(key, value)`
    /// pair in `filter` (an empty filter matches every series of that
    /// name). Snapshot order, i.e. sorted by labels.
    pub fn select<'s>(
        &'s self,
        name: &str,
        filter: &[(&str, &str)],
    ) -> impl Iterator<Item = &'s MetricSeries> + 's {
        // Own the query so the iterator borrows only the snapshot.
        let name = name.to_owned();
        let filter: Vec<(String, String)> = filter
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        self.series.iter().filter(move |s| {
            s.name == name
                && filter
                    .iter()
                    .all(|(k, v)| s.labels.get(k) == Some(v.as_str()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_canonical_order_is_insertion_independent() {
        let a = Labels::new().with("rank", 3).with("algorithm", "CD");
        let b = Labels::new().with("algorithm", "CD").with("rank", 3);
        assert_eq!(a, b);
        let keys: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["algorithm", "rank"]);
    }

    #[test]
    #[should_panic(expected = "unknown label key")]
    fn unknown_label_key_panics() {
        let _ = Labels::new().with("hostname", "x");
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn duplicate_label_key_panics() {
        let _ = Labels::new().with("rank", 1).with("rank", 2);
    }

    #[test]
    fn label_ordering_is_numeric_for_integer_values() {
        let r2 = Labels::new().with("rank", 2);
        let r10 = Labels::new().with("rank", 10);
        assert!(r2 < r10, "rank=2 must sort before rank=10");
    }

    #[test]
    fn shard_counters_accumulate_per_series() {
        let mut a = MetricShard::new();
        let l = |r: usize| Labels::new().with("rank", r);
        a.incr("armine.counting.inserts", l(0), 5);
        a.incr("armine.counting.inserts", l(0), 2);
        a.incr("armine.counting.inserts", l(0), 10);
        a.incr("armine.counting.inserts", l(1), 1);
        let snap = a.snapshot(&Labels::new());
        assert_eq!(snap.counter_sum("armine.counting.inserts", &[]), 18);
        assert_eq!(
            snap.counter_sum("armine.counting.inserts", &[("rank", "0")]),
            17
        );
        assert_eq!(snap.len(), 2, "every labeled series is kept apart");
    }

    #[test]
    #[should_panic(expected = "already recorded as a")]
    fn kind_confusion_panics() {
        let mut s = MetricShard::new();
        s.incr("x", Labels::new(), 1);
        s.set_gauge("x", Labels::new(), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_gauge_panics() {
        let mut s = MetricShard::new();
        s.set_gauge("g", Labels::new(), f64::NAN);
    }

    #[test]
    fn label_ordering_is_consistent_with_equality() {
        // "01" and "1" are numerically equal but distinct strings: Ord
        // must not return Equal (it breaks ties lexicographically), or
        // the shard's BTreeMap would conflate the two series.
        let a = Labels::new().with("rank", "01");
        let b = Labels::new().with("rank", "1");
        assert_ne!(a, b);
        assert_ne!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        let mut s = MetricShard::new();
        s.incr("c", a, 1);
        s.incr("c", b, 1);
        assert_eq!(s.len(), 2, "distinct label strings must stay distinct");
    }

    #[test]
    fn snapshot_stamps_base_labels_on_every_series() {
        let mut s = MetricShard::new();
        s.incr("c", Labels::new().with("rank", 0), 1);
        s.set_gauge("g", Labels::new(), 0.5);
        let base = Labels::new().with("algorithm", "CD").with("procs", 8);
        let snap = s.snapshot(&base);
        for series in snap.series() {
            assert_eq!(series.labels.get("algorithm"), Some("CD"));
            assert_eq!(series.labels.get("procs"), Some("8"));
        }
    }

    #[test]
    fn snapshot_series_are_sorted_and_queryable() {
        let mut s = MetricShard::new();
        for rank in [10usize, 2, 0] {
            s.set_gauge("g", Labels::new().with("rank", rank), rank as f64);
        }
        let snap = s.snapshot(&Labels::new());
        assert_eq!(snap.label_values("rank"), vec!["0", "2", "10"]);
        assert_eq!(snap.gauge("g", &[("rank", "2")]), Some(2.0));
        assert_eq!(snap.gauge("g", &[("rank", "7")]), None);
    }

    #[test]
    #[should_panic(expected = "more than one")]
    fn underconstrained_gauge_query_panics() {
        let mut s = MetricShard::new();
        s.set_gauge("g", Labels::new().with("rank", 0), 1.0);
        s.set_gauge("g", Labels::new().with("rank", 1), 2.0);
        s.snapshot(&Labels::new()).gauge("g", &[]);
    }
}
