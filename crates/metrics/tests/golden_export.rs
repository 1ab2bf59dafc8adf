//! Exporter golden fixture: the JSON layout of a `BenchDocument` is a
//! wire format consumers (CI validators, plotting scripts) parse — it
//! must stay byte-for-byte stable. A deterministic document built here
//! is compared against the committed fixture, which CI's
//! `scripts/check_bench_json.py` also reads.

use armine_metrics::json::{BenchDocument, JsonValue};
use armine_metrics::{Labels, MetricShard};

const FIXTURE: &str = include_str!("fixtures/bench_golden.json");

/// The fixture's document: one of everything — a counter beyond 2^53
/// (exactness past f64), a gauge with a non-terminating binary fraction,
/// a histogram, multi-label series, and context fields.
fn golden_document() -> BenchDocument {
    let mut shard = MetricShard::new();
    shard.incr(
        "armine.run.frequent_itemsets",
        Labels::new().with("algorithm", "CD").with("procs", 4),
        25507,
    );
    shard.incr(
        "armine.rank.bytes_sent",
        Labels::new().with("rank", 0),
        9_007_199_254_740_993, // 2^53 + 1: exact as a u64, not as an f64
    );
    shard.set_gauge(
        "armine.run.response_seconds",
        Labels::new().with("algorithm", "CD").with("procs", 4),
        0.1, // non-terminating in binary: must print as the shortest digits
    );
    shard.observe("armine.run.rank_clock_seconds", Labels::new(), 0.25);
    shard.observe("armine.run.rank_clock_seconds", Labels::new(), 0.125);
    let snapshot = shard.snapshot(&Labels::new().with("backend", "sim"));
    BenchDocument::new("golden_fixture", snapshot)
        .with_context("workload", JsonValue::Str("T15.I6".into()))
        .with_context("transactions", JsonValue::UInt(480))
}

#[test]
fn exporter_output_matches_the_committed_fixture_byte_for_byte() {
    let rendered = golden_document().to_json();
    assert_eq!(
        rendered, FIXTURE,
        "BenchDocument JSON layout drifted from tests/fixtures/bench_golden.json — \
         if the schema change is intentional, bump SCHEMA_VERSION and recapture"
    );
}

/// Recaptures the fixture after an *intentional* schema change:
/// `cargo test -p armine-metrics --test golden_export -- --ignored`
#[test]
#[ignore = "rewrites the committed fixture; run manually after intentional schema changes"]
fn recapture_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/bench_golden.json"
    );
    std::fs::write(path, golden_document().to_json()).unwrap();
    println!("rewrote {path}");
}
