//! Native-vs-virtual speedup validation — the paper's Figure 13 exercise
//! run against our own hardware.
//!
//! Mines one large Quest dataset at several processor counts on both
//! execution backends: the sim backend predicts speedup on its virtual
//! clock (Cray T3E profile), the native backend measures real wall-clock
//! speedup on host threads. The two curves land side by side, and the raw
//! numbers are snapshotted to `experiments/BENCH_native.json` — the first
//! entry of the perf trajectory.
//!
//! Knobs (environment): `ARMINE_NATIVE_N` overrides the transaction count
//! (default 100 000), `ARMINE_NATIVE_MAXP` caps the processor sweep
//! (default `min(host cores, 8)`).

use crate::report::{ratio, secs, write_bench_json, Table};
use crate::workloads;
use armine_metrics::json::{BenchDocument, JsonValue};
use armine_metrics::{names, Labels, MetricShard};
use armine_mpsim::ExecBackend;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Default transactions (override with `ARMINE_NATIVE_N`).
pub const NUM_TRANSACTIONS: usize = 100_000;
/// Minimum support fraction.
pub const MIN_SUPPORT: f64 = 0.01;
/// Deepest pass.
pub const MAX_K: usize = 4;

/// One (algorithm, P) measurement on both backends.
#[derive(Debug, Clone)]
pub struct NativePoint {
    /// `Algorithm::name()`.
    pub algorithm: &'static str,
    /// Processor count.
    pub procs: usize,
    /// Sim-backend virtual response time (seconds).
    pub virtual_s: f64,
    /// Native-backend measured response time (seconds).
    pub measured_s: f64,
    /// Virtual speedup vs the smallest P.
    pub virtual_speedup: f64,
    /// Measured speedup vs the smallest P.
    pub measured_speedup: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Processor counts to sweep: powers of two up to `min(host cores, 8)`
/// (capped so the native ranks stay one-per-core and the measured curve
/// is a real speedup, not oversubscription noise).
pub fn default_procs() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cap = env_usize("ARMINE_NATIVE_MAXP", cores.min(8));
    let mut procs = vec![1];
    while procs.last().unwrap() * 2 <= cap {
        procs.push(procs.last().unwrap() * 2);
    }
    procs
}

/// Runs the sweep and returns the raw points (CD and IDD at each P).
pub fn measure(procs_list: &[usize]) -> Vec<NativePoint> {
    assert!(!procs_list.is_empty());
    let n = env_usize("ARMINE_NATIVE_N", NUM_TRANSACTIONS);
    let dataset = workloads::t15_i6(n, 4242);
    let params = ParallelParams::with_min_support(MIN_SUPPORT)
        .page_size(1000)
        .max_k(MAX_K);
    let mut points = Vec::new();
    for algorithm in [Algorithm::Cd, Algorithm::Idd] {
        let mut base: Option<(f64, f64, f64)> = None; // (P, virtual, measured)
        for &procs in procs_list {
            let run_on = |backend| {
                ParallelMiner::new(procs)
                    .backend(backend)
                    .mine(algorithm, &dataset, &params)
            };
            let virtual_s = run_on(ExecBackend::Sim).response_time;
            let measured_s = run_on(ExecBackend::Native).response_time;
            let (p0, v0, m0) = *base.get_or_insert((procs as f64, virtual_s, measured_s));
            points.push(NativePoint {
                algorithm: algorithm.name(),
                procs,
                virtual_s,
                measured_s,
                virtual_speedup: p0 * v0 / virtual_s,
                measured_speedup: p0 * m0 / measured_s,
            });
        }
    }
    points
}

/// Runs the sweep, writes `experiments/BENCH_native.json`, and returns
/// the comparison table.
pub fn run(procs_list: &[usize]) -> Table {
    let n = env_usize("ARMINE_NATIVE_N", NUM_TRANSACTIONS);
    let points = measure(procs_list);
    match write_bench_json("BENCH_native", &document(n, &points)) {
        Ok(path) => println!("(json: {})", path.display()),
        Err(e) => eprintln!("(json write failed: {e})"),
    }
    table(&points)
}

/// Renders the points as the comparison table.
fn table(points: &[NativePoint]) -> Table {
    let mut table = Table::new(
        "Native vs virtual speedup (T15.I6, normalized to the smallest P)",
        &[
            "algo",
            "P",
            "virtual s",
            "measured s",
            "virtual speedup",
            "measured speedup",
        ],
    );
    for p in points {
        table.row(&[
            &p.algorithm,
            &p.procs,
            &secs(p.virtual_s),
            &secs(p.measured_s),
            &ratio(p.virtual_speedup),
            &ratio(p.measured_speedup),
        ]);
    }
    table
}

/// The registry-snapshot document: each point lands as a response-time
/// gauge and a speedup gauge labeled `{algorithm, procs, backend}`, so the
/// predicted-vs-measured comparison is a label join on `backend`.
fn document(n: usize, points: &[NativePoint]) -> BenchDocument {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut shard = MetricShard::new();
    for p in points {
        let at = |backend: &str| {
            Labels::new()
                .with("algorithm", p.algorithm)
                .with("procs", p.procs)
                .with("backend", backend)
        };
        shard.set_gauge(names::RUN_RESPONSE_SECONDS, at("sim"), p.virtual_s);
        shard.set_gauge(names::RUN_RESPONSE_SECONDS, at("native"), p.measured_s);
        shard.set_gauge(names::RUN_SPEEDUP, at("sim"), p.virtual_speedup);
        shard.set_gauge(names::RUN_SPEEDUP, at("native"), p.measured_speedup);
    }
    BenchDocument::new("native_vs_virtual_speedup", shard.snapshot(&Labels::new()))
        .with_context("workload", JsonValue::Str("T15.I6".into()))
        .with_context("transactions", JsonValue::UInt(n as u64))
        .with_context("min_support", JsonValue::Float(MIN_SUPPORT))
        .with_context("max_k", JsonValue::UInt(MAX_K as u64))
        .with_context("host_cores", JsonValue::UInt(cores as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_both_curves_and_the_json() {
        crate::report::use_scratch_experiments_dir();
        std::env::set_var("ARMINE_NATIVE_N", "400");
        let points = measure(&[1, 2]);
        std::env::remove_var("ARMINE_NATIVE_N");
        let table = table(&points);
        // Two algorithms x two processor counts.
        assert_eq!(table.len(), 4);
        for row in table.rows() {
            let virtual_s: f64 = row[2].parse().unwrap();
            let measured_s: f64 = row[3].parse().unwrap();
            assert!(virtual_s > 0.0 && measured_s > 0.0, "{row:?}");
        }
        let doc = document(400, &points);
        let path = write_bench_json("BENCH_native", &doc).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), doc.to_json());
        assert_eq!(doc.benchmark, "native_vs_virtual_speedup");
        // 2 algos x 2 P x 2 backends, one response gauge + one speedup gauge each.
        assert_eq!(doc.snapshot.len(), 16);
        let natives = doc
            .snapshot
            .select(names::RUN_SPEEDUP, &[("backend", "native")])
            .count();
        assert_eq!(natives, 4);
    }

    #[test]
    fn default_procs_are_powers_of_two_from_one() {
        let procs = default_procs();
        assert_eq!(procs[0], 1);
        assert!(procs.windows(2).all(|w| w[1] == 2 * w[0]));
        assert!(*procs.last().unwrap() <= 8);
    }
}
