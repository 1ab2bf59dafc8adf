//! Schema-versioned JSON export and import for metrics snapshots.
//!
//! The document layout (schema version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "benchmark": "parallel_mine",
//!   "context": {"transactions": 480, "host_cores": 1},
//!   "metrics": [
//!     {"name": "armine.counting.inserts", "kind": "counter",
//!      "labels": {"algorithm": "CD", "rank": "0", "pass": "2"},
//!      "value": 1234},
//!     {"name": "armine.run.response_seconds", "kind": "gauge",
//!      "labels": {"algorithm": "CD"}, "value": 0.0375},
//!     {"name": "armine.run.rank_clock_seconds", "kind": "histogram",
//!      "labels": {}, "count": 8, "sum": 0.29, "min": 0.031, "max": 0.04}
//!   ]
//! }
//! ```
//!
//! Numbers round-trip exactly: counters serialize as `u64` decimals and
//! parse back into [`JsonValue::UInt`]; floats use Rust's `Display`,
//! which prints the shortest decimal that re-parses to the same bits.
//! Labels always serialize as strings and appear in canonical
//! [`LABEL_KEYS`] order; series appear in snapshot
//! order — the same run serializes to the same bytes.

use crate::{HistogramSummary, Labels, MetricSeries, MetricValue, MetricsSnapshot, LABEL_KEYS};
use std::fmt::Write as _;
use std::path::Path;

/// The schema version this crate writes, and the only one it accepts.
pub const SCHEMA_VERSION: u64 = 1;

/// A dynamically typed JSON value.
///
/// Integers keep their exact representation: a non-negative literal
/// parses as [`UInt`](JsonValue::UInt) (so `u64` counters survive the
/// round trip beyond 2^53), a negative one as [`Int`](JsonValue::Int),
/// and anything with a fraction or exponent as
/// [`Float`](JsonValue::Float).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal.
    UInt(u64),
    /// A negative integer literal.
    Int(i64),
    /// A fractional or exponent-bearing number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered fields.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The numeric value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64`, for non-negative integer variants.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The named field of an object.
    pub fn field(&self, name: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements.
    pub fn elements(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

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
/// document [`BenchDocument::parse`] rejects. The recording guards in
/// [`MetricShard`](crate::MetricShard) keep such values out of
/// snapshots in the first place.
pub fn fmt_f64(v: f64) -> String {
    assert!(v.is_finite(), "cannot serialize non-finite f64 {v} as JSON");
    format!("{v}")
}

/// A JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected {word}"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let simple = match self.peek() {
                        Some(b'"') => Some('"'),
                        Some(b'\\') => Some('\\'),
                        Some(b'/') => Some('/'),
                        Some(b'n') => Some('\n'),
                        Some(b't') => Some('\t'),
                        Some(b'r') => Some('\r'),
                        Some(b'b') => Some('\u{8}'),
                        Some(b'f') => Some('\u{c}'),
                        Some(b'u') => None,
                        _ => return self.err("bad escape"),
                    };
                    match simple {
                        Some(c) => {
                            out.push(c);
                            self.pos += 1;
                        }
                        None => out.push(self.unicode_escape()?),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| ParseError {
                        message: "invalid utf-8".into(),
                        offset: self.pos,
                    })?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes a `\uXXXX` escape with `pos` on the `u`, combining a
    /// surrogate pair (`\uD83D\uDE00` → 😀) into its single code point,
    /// as RFC 8259 §7 requires. Leaves `pos` one past the last hex digit.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let unit = self.hex4()?;
        let code = if (0xD800..=0xDBFF).contains(&unit) {
            if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                return self.err("high surrogate not followed by a \\u escape");
            }
            self.pos += 1;
            let low = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return self.err("high surrogate not followed by a low surrogate");
            }
            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
        } else {
            unit
        };
        // from_u32 fails only on a lone low surrogate here.
        char::from_u32(code).map_or_else(|| self.err("bad \\u escape"), Ok)
    }

    /// Consumes `u` plus exactly four hex digits (`pos` on the `u`),
    /// returning the UTF-16 code unit.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let unit = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok());
        match unit {
            Some(v) => {
                self.pos += 5;
                Ok(v)
            }
            None => self.err("bad \\u escape"),
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(JsonValue::Float(v)),
            Err(_) => self.err(format!("bad number {text:?}")),
        }
    }
}

/// Parses a JSON document into a [`JsonValue`] tree.
pub fn parse_json(input: &str) -> Result<JsonValue, ParseError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing data after document");
    }
    Ok(value)
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
                let mut fields = vec![
                    ("name".to_owned(), JsonValue::Str(series.name.clone())),
                    (
                        "kind".to_owned(),
                        JsonValue::Str(series.value.kind().to_owned()),
                    ),
                    ("labels".to_owned(), labels),
                ];
                match series.value {
                    MetricValue::Counter(v) => {
                        fields.push(("value".to_owned(), JsonValue::UInt(v)));
                    }
                    MetricValue::Gauge(v) => {
                        fields.push(("value".to_owned(), JsonValue::Float(v)));
                    }
                    MetricValue::Histogram(h) => {
                        fields.push(("count".to_owned(), JsonValue::UInt(h.count)));
                        fields.push(("sum".to_owned(), JsonValue::Float(h.sum)));
                        fields.push(("min".to_owned(), JsonValue::Float(h.min)));
                        fields.push(("max".to_owned(), JsonValue::Float(h.max)));
                    }
                }
                JsonValue::Object(fields)
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

    /// Parses and validates a schema-version-1 document: the version must
    /// match, every label key must be in the taxonomy, and each metric's
    /// fields must be consistent with its declared kind.
    pub fn parse(input: &str) -> Result<BenchDocument, String> {
        let doc = parse_json(input).map_err(|e| e.to_string())?;
        let version = doc
            .field("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this reader handles {SCHEMA_VERSION})"
            ));
        }
        let benchmark = doc
            .field("benchmark")
            .and_then(JsonValue::as_str)
            .ok_or("missing benchmark")?
            .to_owned();
        let context = match doc.field("context") {
            None => Vec::new(),
            Some(JsonValue::Object(fields)) => fields.clone(),
            Some(_) => return Err("context must be an object".into()),
        };
        let metrics = doc
            .field("metrics")
            .and_then(JsonValue::elements)
            .ok_or("missing metrics array")?;
        let mut series = Vec::with_capacity(metrics.len());
        for entry in metrics {
            series.push(parse_series(entry)?);
        }
        Ok(BenchDocument {
            benchmark,
            context,
            snapshot: MetricsSnapshot::from_series(series),
        })
    }

    /// Writes `to_json()` to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn parse_series(entry: &JsonValue) -> Result<MetricSeries, String> {
    let name = entry
        .field("name")
        .and_then(JsonValue::as_str)
        .ok_or("metric missing name")?
        .to_owned();
    let kind = entry
        .field("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("metric {name} missing kind"))?;
    let mut labels = Labels::new();
    match entry.field("labels") {
        Some(JsonValue::Object(fields)) => {
            for (key, value) in fields {
                if !LABEL_KEYS.contains(&key.as_str()) {
                    return Err(format!(
                        "metric {name} has unknown label key {key:?} (taxonomy: {LABEL_KEYS:?})"
                    ));
                }
                let value = value
                    .as_str()
                    .ok_or_else(|| format!("metric {name} label {key} must be a string"))?;
                labels = labels.with(key, value);
            }
        }
        Some(_) => return Err(format!("metric {name} labels must be an object")),
        None => return Err(format!("metric {name} missing labels")),
    }
    let value = match kind {
        "counter" => MetricValue::Counter(
            entry
                .field("value")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("counter {name} needs an unsigned integer value"))?,
        ),
        "gauge" => MetricValue::Gauge(
            entry
                .field("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("gauge {name} needs a numeric value"))?,
        ),
        "histogram" => {
            let num = |field: &str| {
                entry
                    .field(field)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("histogram {name} needs numeric {field}"))
            };
            MetricValue::Histogram(HistogramSummary {
                count: entry
                    .field("count")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("histogram {name} needs unsigned count"))?,
                sum: num("sum")?,
                min: num("min")?,
                max: num("max")?,
            })
        }
        other => return Err(format!("metric {name} has unknown kind {other:?}")),
    };
    Ok(MetricSeries {
        name,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricShard;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut shard = MetricShard::new();
        for rank in 0..3u64 {
            shard.incr(
                "armine.counting.inserts",
                Labels::new().with("rank", rank),
                100 + rank,
            );
            shard.set_gauge(
                "armine.rank.busy_seconds",
                Labels::new().with("rank", rank),
                0.1 * (rank as f64) + 0.037,
            );
        }
        shard.set_gauge(
            "armine.run.response_seconds",
            Labels::new(),
            0.375_000_000_1,
        );
        for v in [0.03, 0.041, 0.0375] {
            shard.observe("armine.run.rank_clock_seconds", Labels::new(), v);
        }
        // A counter beyond 2^53 must survive the round trip exactly.
        shard.incr(
            "armine.counting.traversal_steps",
            Labels::new(),
            (1 << 60) + 7,
        );
        shard.snapshot(&Labels::new().with("algorithm", "CD").with("procs", 8))
    }

    #[test]
    fn document_round_trips_exactly() {
        let doc = BenchDocument::new("unit", sample_snapshot())
            .with_context("transactions", JsonValue::UInt(480))
            .with_context("min_support", JsonValue::Float(0.01));
        let text = doc.to_json();
        let parsed = BenchDocument::parse(&text).expect("round-trip parse");
        assert_eq!(parsed, doc);
        // Serialization is a fixed point: same bytes on the second trip.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for v in [0.1, 1.0 / 3.0, 6.02e23, 5e-324, f64::MAX, 0.0375] {
            let text = fmt_f64(v);
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
        }
    }

    #[test]
    fn unknown_label_key_is_rejected() {
        let text = r#"{"schema_version": 1, "benchmark": "x", "context": {},
            "metrics": [{"name": "n", "kind": "counter",
                         "labels": {"hostname": "a"}, "value": 1}]}"#;
        let err = BenchDocument::parse(text).unwrap_err();
        assert!(err.contains("unknown label key"), "{err}");
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = r#"{"schema_version": 2, "benchmark": "x", "context": {}, "metrics": []}"#;
        let err = BenchDocument::parse(text).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
    }

    #[test]
    fn kind_value_mismatch_is_rejected() {
        let text = r#"{"schema_version": 1, "benchmark": "x", "context": {},
            "metrics": [{"name": "n", "kind": "counter",
                         "labels": {}, "value": 1.5}]}"#;
        let err = BenchDocument::parse(text).unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
    }

    #[test]
    fn labels_serialize_in_canonical_order() {
        let mut shard = MetricShard::new();
        shard.incr("c", Labels::new().with("pass", 2).with("rank", 1), 1);
        let snap = shard.snapshot(&Labels::new().with("algorithm", "CD"));
        let doc = BenchDocument::new("order", snap).to_json();
        let algorithm = doc.find("\"algorithm\"").unwrap();
        let rank = doc.find("\"rank\"").unwrap();
        let pass = doc.find("\"pass\"").unwrap();
        assert!(
            algorithm < rank && rank < pass,
            "labels out of canonical order:\n{doc}"
        );
    }

    #[test]
    fn parser_handles_escapes_nesting_and_numbers() {
        let text = r#"{"a": [1, -2, 3.5, 1e3, true, false, null],
                       "s": "line\nbreak \"quoted\" é"}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(
            v.field("a").unwrap().elements().unwrap(),
            &[
                JsonValue::UInt(1),
                JsonValue::Int(-2),
                JsonValue::Float(3.5),
                JsonValue::Float(1e3),
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null,
            ]
        );
        assert_eq!(
            v.field("s").unwrap().as_str().unwrap(),
            "line\nbreak \"quoted\" é"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_float_cannot_serialize() {
        let _ = fmt_f64(f64::NAN);
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        // Python's json.dumps("😀") emits exactly this pair.
        let v = parse_json("\"\\ud83d\\ude00 ok\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "😀 ok");
    }

    #[test]
    fn malformed_surrogates_are_rejected() {
        for text in [
            r#""\ud83d""#,       // high surrogate at end of string
            r#""\ud83dx""#,      // high surrogate followed by a plain char
            r#""\ud83d\n""#,     // high surrogate followed by another escape
            r#""\ud83d\ud83d""#, // high surrogate followed by another high
            r#""\ude00""#,       // lone low surrogate
            r#""\u12g4""#,       // non-hex digit
            r#""\u+123""#,       // sign accepted by from_str_radix, not JSON
        ] {
            assert!(parse_json(text).is_err(), "{text} should be rejected");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("").is_err());
    }
}
