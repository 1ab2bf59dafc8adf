//! Schema-versioned JSON export for metrics snapshots.
//!
//! The document layout (schema version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "benchmark": "parallel_mine",
//!   "context": {"transactions": 480, "max_k": 3},
//!   "metrics": [
//!     {"name": "armine.counting.inserts", "kind": "counter",
//!      "labels": {"algorithm": "CD", "rank": "0", "pass": "2"},
//!      "value": 1234},
//!     {"name": "armine.run.response_seconds", "kind": "gauge",
//!      "labels": {"algorithm": "CD"}, "value": 0.0375}
//!   ]
//! }
//! ```
//!
//! Numbers are written exactly: counters serialize as `u64` decimals
//! (no detour through `f64`, so they stay exact beyond 2^53); floats use
//! Rust's `Display`, which prints the shortest decimal that re-parses to
//! the same bits.
//! Labels always serialize as strings and appear in canonical
//! [`LABEL_KEYS`](crate::LABEL_KEYS) order; series appear in snapshot
//! order — the same run serializes to the same bytes.
//!
//! This crate only writes the format. It is read by
//! `scripts/check_bench_json.py` (the schema check CI runs) and by
//! `benchmark/compare.py`.

use crate::{MetricValue, MetricsSnapshot};
use std::fmt::Write as _;
use std::path::Path;

/// The schema version this crate writes.
pub const SCHEMA_VERSION: u64 = 1;

/// A JSON value to render: the tree [`BenchDocument::to_json`] builds,
/// and the type of a document's context fields.
///
/// Integers keep their exact representation: [`UInt`](JsonValue::UInt)
/// renders a `u64` counter digit for digit beyond 2^53,
/// [`Int`](JsonValue::Int) a negative integer, and
/// [`Float`](JsonValue::Float) goes through [`fmt_f64`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered fields.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    fn render(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => out.push_str(&fmt_f64(*v)),
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.render(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    render_string(key, out);
                    out.push_str(": ");
                    value.render(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Pretty-prints the value (2-space indent, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out.push('\n');
        out
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` with Rust's shortest-round-trip `Display` — parsing
/// the result back yields a bit-identical `f64`. Panics on NaN/Inf:
/// JSON has no non-finite literals, and any placeholder would produce a
/// document `scripts/check_bench_json.py` rejects. The recording guards in
/// [`MetricShard`](crate::MetricShard) keep such values out of
/// snapshots in the first place.
pub fn fmt_f64(v: f64) -> String {
    assert!(v.is_finite(), "cannot serialize non-finite f64 {v} as JSON");
    format!("{v}")
}

/// A schema-versioned benchmark document: a named snapshot plus free-form
/// context fields (dataset size, host cores, …). This is the one format
/// every `exp` experiment and the CLI `--metrics-json` flag emit.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDocument {
    /// Benchmark/run identifier (e.g. `"parallel_mine"`).
    pub benchmark: String,
    /// Free-form context fields, serialized in insertion order.
    pub context: Vec<(String, JsonValue)>,
    /// The metrics payload.
    pub snapshot: MetricsSnapshot,
}

impl BenchDocument {
    /// A document with no context fields.
    pub fn new(benchmark: &str, snapshot: MetricsSnapshot) -> Self {
        BenchDocument {
            benchmark: benchmark.to_owned(),
            context: Vec::new(),
            snapshot,
        }
    }

    /// Appends a context field (builder style).
    #[must_use]
    pub fn with_context(mut self, key: &str, value: JsonValue) -> Self {
        self.context.push((key.to_owned(), value));
        self
    }

    /// Serializes to the schema-version-1 layout.
    pub fn to_json(&self) -> String {
        let metrics = self
            .snapshot
            .series()
            .iter()
            .map(|series| {
                let labels = JsonValue::Object(
                    series
                        .labels
                        .iter()
                        .map(|(k, v)| (k.to_owned(), JsonValue::Str(v.to_owned())))
                        .collect(),
                );
                let value = match series.value {
                    MetricValue::Counter(v) => JsonValue::UInt(v),
                    MetricValue::Gauge(v) => JsonValue::Float(v),
                };
                JsonValue::Object(vec![
                    ("name".to_owned(), JsonValue::Str(series.name.clone())),
                    (
                        "kind".to_owned(),
                        JsonValue::Str(series.value.kind().to_owned()),
                    ),
                    ("labels".to_owned(), labels),
                    ("value".to_owned(), value),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("schema_version".to_owned(), JsonValue::UInt(SCHEMA_VERSION)),
            (
                "benchmark".to_owned(),
                JsonValue::Str(self.benchmark.clone()),
            ),
            (
                "context".to_owned(),
                JsonValue::Object(self.context.clone()),
            ),
            ("metrics".to_owned(), JsonValue::Array(metrics)),
        ])
        .to_json()
    }

    /// Writes `to_json()` to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Labels, MetricShard};

    /// Nothing in the workspace reads a document back, so the writer's
    /// bytes are the contract: string escaping, exact integers, shortest
    /// float digits, canonical label order, snapshot order and layout.
    #[test]
    fn document_bytes_are_pinned() {
        let mut shard = MetricShard::new();
        // Labels given pass-before-rank must come out in taxonomy order.
        let at = |rank: u64| Labels::new().with("pass", 2).with("rank", rank);
        shard.incr("c", at(10), u64::MAX);
        shard.incr("c", at(9), (1 << 53) + 1);
        shard.set_gauge("g", Labels::new(), 1e-7);
        let snapshot = shard.snapshot(&Labels::new().with("algorithm", "CD"));
        let doc = BenchDocument::new("q\"b\\s/\n\t\r\u{1}\u{1f}é😀", snapshot)
            .with_context("big", JsonValue::UInt(u64::MAX))
            .with_context("neg", JsonValue::Int(-2))
            .with_context("whole", JsonValue::Float(3.0))
            .with_context("large", JsonValue::Float(6.02e23))
            .with_context("flag", JsonValue::Bool(true))
            .with_context("none", JsonValue::Null)
            .with_context("empty", JsonValue::Array(Vec::new()))
            .with_context(
                "list",
                JsonValue::Array(vec![JsonValue::Object(Vec::new()), JsonValue::UInt(0)]),
            );
        let expected = r#"{
  "schema_version": 1,
  "benchmark": "q\"b\\s/\n\t\r\u0001\u001fé😀",
  "context": {
    "big": 18446744073709551615,
    "neg": -2,
    "whole": 3,
    "large": 602000000000000000000000,
    "flag": true,
    "none": null,
    "empty": [],
    "list": [
      {},
      0
    ]
  },
  "metrics": [
    {
      "name": "c",
      "kind": "counter",
      "labels": {
        "algorithm": "CD",
        "rank": "9",
        "pass": "2"
      },
      "value": 9007199254740993
    },
    {
      "name": "c",
      "kind": "counter",
      "labels": {
        "algorithm": "CD",
        "rank": "10",
        "pass": "2"
      },
      "value": 18446744073709551615
    },
    {
      "name": "g",
      "kind": "gauge",
      "labels": {
        "algorithm": "CD"
      },
      "value": 0.0000001
    }
  ]
}
"#;
        assert_eq!(doc.to_json(), expected);
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for v in [0.1, 1.0 / 3.0, 6.02e23, 5e-324, f64::MAX, 0.0375, 1e-7] {
            let text = fmt_f64(v);
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_float_cannot_serialize() {
        let _ = fmt_f64(f64::NAN);
    }
}
