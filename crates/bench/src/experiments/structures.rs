//! Candidate-structure comparison: hash tree vs candidate trie vs the
//! vertical (tidlist) counter behind the
//! [`CandidateCounter`](armine_core::counter::CandidateCounter) seam.
//!
//! The paper counts candidates with Agrawal's hash tree; a prefix trie
//! with a merge-intersect walk is the main alternative in the literature
//! (Borgelt's Apriori, FP-growth's predecessors), and Eclat-style vertical
//! counting — per-item TID bitmaps intersected with AND/popcount — is the
//! other classic layout (Zaki et al.). All three backends produce
//! identical counts — this experiment asks what each *pays*: virtual
//! response time under the T3E cost model plus the raw op-count ledgers
//! (traversal steps, leaf/node visits, candidate membership checks,
//! intersection words) that drive it. Run on a replicated-candidates
//! formulation (CD) and a partitioned one (IDD, where the trie prunes
//! whole subtrees through the ownership bitmap) at P ∈ {1, 16, 64}, and
//! snapshotted to `experiments/BENCH_structures.json`.

use crate::report::{ms, write_bench_json, Table};
use crate::workloads;
use armine_core::counter::{CounterBackend, CounterStats};
use armine_metrics::json::{BenchDocument, JsonValue};
use armine_metrics::{names, Labels, MetricShard};
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Minimum support fraction.
const MIN_SUPPORT: f64 = 0.01;
/// Deepest pass.
const MAX_K: usize = 4;
/// Transactions (small: the virtual clock does the scaling).
const TRANSACTIONS: usize = 3200;

/// One (algorithm, counter backend, P) data point.
#[derive(Debug, Clone)]
struct StructurePoint {
    /// `Algorithm::name()`.
    algorithm: &'static str,
    /// Counting-backend name.
    counter: &'static str,
    /// Processor count.
    procs: usize,
    /// Virtual response time (seconds).
    response_s: f64,
    /// Work ledger summed over all passes and ranks.
    stats: CounterStats,
    /// Frequent itemsets mined (backend-invariant).
    frequent: usize,
}

/// Runs the sweep: both algorithms, all three counting
/// backends, P ∈ {1, 16, 64}.
fn measure() -> Vec<StructurePoint> {
    let dataset = workloads::t10_i4(TRANSACTIONS, 33);
    let mut points = Vec::new();
    for algorithm in [Algorithm::Cd, Algorithm::Idd] {
        for backend in CounterBackend::ALL {
            for procs in [1usize, 16, 64] {
                let params = ParallelParams::with_min_support(MIN_SUPPORT)
                    .page_size(100)
                    .max_k(MAX_K)
                    .counter(backend);
                let run = ParallelMiner::new(procs).mine(algorithm, &dataset, &params);
                let stats = run
                    .passes
                    .iter()
                    .fold(CounterStats::default(), |acc, p| acc.merged(&p.tree_stats));
                points.push(StructurePoint {
                    algorithm: run.algorithm,
                    counter: backend.name(),
                    procs,
                    response_s: run.response_time,
                    stats,
                    frequent: run.frequent.len(),
                });
            }
        }
    }
    points
}

/// Renders the sweep as the comparison table.
fn table(points: &[StructurePoint]) -> Table {
    let mut table = Table::new(
        "Counting structures — hash tree vs trie vs vertical (T10.I4, N=3200)",
        &[
            "algorithm",
            "backend",
            "procs",
            "response ms",
            "traversal steps",
            "node visits",
            "cand checks",
            "isect words",
            "frequent",
        ],
    );
    for p in points {
        table.row(&[
            &p.algorithm,
            &p.counter,
            &p.procs,
            &ms(p.response_s),
            &p.stats.traversal_steps,
            &p.stats.distinct_leaf_visits,
            &p.stats.candidate_checks,
            &p.stats.intersection_words,
            &p.frequent,
        ]);
    }
    table
}

/// Runs the sweep, writes `experiments/BENCH_structures.json`, and
/// returns the comparison table.
pub(crate) fn run() -> Table {
    let points = measure();
    match write_bench_json("BENCH_structures", &document(&points)) {
        Ok(path) => println!("(json: {})", path.display()),
        Err(e) => eprintln!("(json write failed: {e})"),
    }
    table(&points)
}

/// The registry-snapshot document: each point lands as the seven
/// counting-ledger counters plus a response gauge and a frequent-itemsets
/// counter under `{algorithm, counter, procs}`.
fn document(points: &[StructurePoint]) -> BenchDocument {
    let mut shard = MetricShard::new();
    for p in points {
        let labels = Labels::new()
            .with("algorithm", p.algorithm)
            .with("counter", p.counter)
            .with("procs", p.procs);
        shard.set_gauge(names::RUN_RESPONSE_SECONDS, labels.clone(), p.response_s);
        shard.incr(names::RUN_FREQUENT, labels.clone(), p.frequent as u64);
        for (field, value) in p.stats.named_fields() {
            shard.incr(&names::counting(field), labels.clone(), value);
        }
    }
    BenchDocument::new("counting_structures", shard.snapshot(&Labels::new()))
        .with_context("workload", JsonValue::Str("T10.I4".into()))
        .with_context("min_support", JsonValue::Float(MIN_SUPPORT))
        .with_context("max_k", JsonValue::UInt(MAX_K as u64))
        .with_context("transactions", JsonValue::UInt(TRANSACTIONS as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_agree_on_frequent_counts() {
        let points = measure();
        let table = table(&points);
        assert_eq!(table.len(), 18, "2 algorithms x 3 backends x 3 P values");
        // The "frequent" column must not depend on backend, P, or algorithm.
        let frequent: Vec<&str> = table.rows().iter().map(|r| r[8].as_str()).collect();
        assert!(
            frequent.iter().all(|f| *f == frequent[0]),
            "frequent counts diverged: {frequent:?}"
        );
        // Only the vertical backend accrues intersection words; the
        // horizontal backends must report zero so the default-backend
        // virtual-time fingerprints stay untouched.
        for p in &points {
            if p.counter == "vertical" {
                assert!(p.stats.intersection_words > 0, "{p:?}");
            } else {
                assert_eq!(p.stats.intersection_words, 0, "{p:?}");
            }
        }
    }

    #[test]
    fn sweep_writes_the_json() {
        crate::report::use_scratch_experiments_dir();
        let points = measure();
        let doc = document(&points);
        let path = write_bench_json("BENCH_structures", &doc).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), doc.to_json());
        assert_eq!(doc.benchmark, "counting_structures");
        // The vertical backend's intersection-word ledger made it into the
        // snapshot with exact values.
        let vertical_words = doc.snapshot.counter_sum(
            &names::counting("intersection_words"),
            &[("counter", "vertical")],
        );
        let expected: u64 = points
            .iter()
            .filter(|p| p.counter == "vertical")
            .map(|p| p.stats.intersection_words)
            .sum();
        assert_eq!(vertical_words, expected);
        assert!(vertical_words > 0);
    }
}
