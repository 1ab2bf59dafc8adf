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
//! whole subtrees through the ownership bitmap) at P ∈ {1, 16, 64}.
//!
//! A second, native-backend measurement times each backend's counting
//! phase for real: CD at P=1 hands the counter the whole database as one
//! batch — the vertical layout's winning regime, since it pays one
//! pivot per batch and then one AND+popcount per candidate. Both slices
//! land in `experiments/BENCH_structures.json`.
//!
//! Knob (environment): `ARMINE_STRUCTURES_N` overrides the native
//! measurement's transaction count (default 20 000).

use crate::report::{ms, secs, write_bench_json, Table};
use crate::workloads;
use armine_core::counter::{CounterBackend, CounterStats};
use armine_metrics::json::{BenchDocument, JsonValue};
use armine_metrics::{names, Labels, MetricShard};
use armine_mpsim::ExecBackend;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Minimum support fraction for both slices.
pub const MIN_SUPPORT: f64 = 0.01;
/// Deepest pass.
pub const MAX_K: usize = 4;
/// Default native-measurement transactions (override with
/// `ARMINE_STRUCTURES_N`).
pub const NATIVE_TRANSACTIONS: usize = 20_000;
/// Sim-slice transactions (small: the virtual clock does the scaling).
pub const SIM_TRANSACTIONS: usize = 3200;

/// One (algorithm, counter backend, P) sim-backend data point.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// `Algorithm::name()`.
    pub algorithm: &'static str,
    /// Counting-backend name.
    pub counter: &'static str,
    /// Processor count.
    pub procs: usize,
    /// Virtual response time (seconds).
    pub response_s: f64,
    /// Work ledger summed over all passes and ranks.
    pub stats: CounterStats,
    /// Frequent itemsets mined (backend-invariant).
    pub frequent: usize,
}

/// One counter backend's native (wall-clock) measurement: CD at P=1, the
/// whole database as a single counting batch.
#[derive(Debug, Clone)]
pub struct NativePoint {
    /// Counting-backend name.
    pub counter: &'static str,
    /// Measured wall seconds attributed to candidate counting.
    pub counting_s: f64,
    /// Measured wall seconds for the whole run.
    pub total_s: f64,
    /// Frequent itemsets mined (backend-invariant).
    pub frequent: usize,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs the sim-backend sweep: both algorithms, all three counting
/// backends, P ∈ {1, 16, 64}.
pub fn measure_sim() -> Vec<SimPoint> {
    let dataset = workloads::t10_i4(SIM_TRANSACTIONS, 33);
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
                points.push(SimPoint {
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

/// Times each backend's counting phase for real: CD at P=1 on the native
/// execution backend counts the entire database as one batch, so the
/// measured [`WallTimings::counting`](armine_mpsim::WallTimings) isolates
/// the structure's own cost.
pub fn measure_native(n: usize) -> Vec<NativePoint> {
    let dataset = workloads::t10_i4(n, 33);
    CounterBackend::ALL
        .into_iter()
        .map(|backend| {
            let params = ParallelParams::with_min_support(MIN_SUPPORT)
                .page_size(1000)
                .max_k(MAX_K)
                .counter(backend);
            let run = ParallelMiner::new(1).backend(ExecBackend::Native).mine(
                Algorithm::Cd,
                &dataset,
                &params,
            );
            NativePoint {
                counter: backend.name(),
                counting_s: run.wall[0].counting,
                total_s: run.wall[0].total,
                frequent: run.frequent.len(),
            }
        })
        .collect()
}

/// Renders the sim sweep as the comparison table.
pub fn sim_table(points: &[SimPoint]) -> Table {
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

/// Renders the native measurement as a table.
pub fn native_table(n: usize, points: &[NativePoint]) -> Table {
    let mut table = Table::new(
        &format!("Native counting time — CD, P=1, one batch (T10.I4, N={n})"),
        &["backend", "counting s", "total s", "frequent"],
    );
    for p in points {
        table.row(&[
            &p.counter,
            &secs(p.counting_s),
            &secs(p.total_s),
            &p.frequent,
        ]);
    }
    table
}

/// Runs the sim structure comparison and returns the table (the
/// historical entry point; `exp structures` also runs the native slice
/// and writes the JSON via [`run_full`]).
pub fn run() -> Table {
    sim_table(&measure_sim())
}

/// Runs both slices, writes `experiments/BENCH_structures.json`, and
/// returns the two tables (sim sweep, native counting times).
pub fn run_full() -> (Table, Table) {
    let n = env_usize("ARMINE_STRUCTURES_N", NATIVE_TRANSACTIONS);
    let sim = measure_sim();
    let native = measure_native(n);
    match write_bench_json("BENCH_structures", &document(n, &sim, &native)) {
        Ok(path) => println!("(json: {})", path.display()),
        Err(e) => eprintln!("(json write failed: {e})"),
    }
    (sim_table(&sim), native_table(n, &native))
}

/// The registry-snapshot document: sim points land as the seven
/// counting-ledger counters plus a response gauge and a frequent-itemsets
/// counter under `{algorithm, counter, procs, backend="sim"}`; native
/// points as wall-clock counting/total gauges under
/// `{algorithm="CD", counter, procs="1", backend="native"}`.
fn document(n: usize, sim: &[SimPoint], native: &[NativePoint]) -> BenchDocument {
    let mut shard = MetricShard::new();
    for p in sim {
        let labels = Labels::new()
            .with("algorithm", p.algorithm)
            .with("counter", p.counter)
            .with("procs", p.procs)
            .with("backend", "sim");
        shard.set_gauge(names::RUN_RESPONSE_SECONDS, labels.clone(), p.response_s);
        shard.incr(names::RUN_FREQUENT, labels.clone(), p.frequent as u64);
        for (field, value) in p.stats.named_fields() {
            shard.incr(&names::counting(field), labels.clone(), value);
        }
    }
    for p in native {
        let labels = Labels::new()
            .with("algorithm", "CD")
            .with("counter", p.counter)
            .with("procs", 1)
            .with("backend", "native");
        shard.set_gauge(&names::wall_time("counting"), labels.clone(), p.counting_s);
        shard.set_gauge(&names::wall_time("total"), labels.clone(), p.total_s);
        shard.incr(names::RUN_FREQUENT, labels, p.frequent as u64);
    }
    BenchDocument::new("counting_structures", shard.snapshot(&Labels::new()))
        .with_context("workload", JsonValue::Str("T10.I4".into()))
        .with_context("min_support", JsonValue::Float(MIN_SUPPORT))
        .with_context("max_k", JsonValue::UInt(MAX_K as u64))
        .with_context("sim_transactions", JsonValue::UInt(SIM_TRANSACTIONS as u64))
        .with_context("native_transactions", JsonValue::UInt(n as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_agree_on_frequent_counts() {
        let points = measure_sim();
        let table = sim_table(&points);
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
    fn native_slice_measures_all_backends_and_writes_json() {
        crate::report::use_scratch_experiments_dir();
        let points = measure_native(400);
        assert_eq!(points.len(), CounterBackend::ALL.len());
        let frequent: Vec<usize> = points.iter().map(|p| p.frequent).collect();
        assert!(frequent.iter().all(|f| *f == frequent[0]), "{frequent:?}");
        for p in &points {
            assert!(p.counting_s >= 0.0 && p.total_s > 0.0, "{p:?}");
        }
        let sim = measure_sim();
        let doc = document(400, &sim, &points);
        let path = write_bench_json("BENCH_structures", &doc).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), doc.to_json());
        assert_eq!(doc.benchmark, "counting_structures");
        // Native slice: one wall-clock counting gauge per counter backend.
        let native_series = doc
            .snapshot
            .select(&names::wall_time("counting"), &[("backend", "native")])
            .count();
        assert_eq!(native_series, CounterBackend::ALL.len());
        // Sim slice: the vertical backend's intersection-word ledger made
        // it into the snapshot with exact values.
        let vertical_words = doc.snapshot.counter_sum(
            &names::counting("intersection_words"),
            &[("counter", "vertical"), ("backend", "sim")],
        );
        let expected: u64 = sim
            .iter()
            .filter(|p| p.counter == "vertical")
            .map(|p| p.stats.intersection_words)
            .sum();
        assert_eq!(vertical_words, expected);
        assert!(vertical_words > 0);
    }
}
