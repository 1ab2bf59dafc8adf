//! Heterogeneous-cluster experiment: what a mix of fast and slow
//! processors costs each placement policy.
//!
//! The paper's machines are homogeneous, so its formulations split work
//! evenly. On a cluster where some ranks run at a fraction of the others'
//! speed, an even split makes every pass wait for the slowest rank. This
//! sweep measures that penalty and how much of it the adaptive placement
//! seam claws back: 25% and 50% of the ranks slowed 2–8×, at P=16 on the
//! simulated Cray T3E. Each mix runs CD (replicated candidates, page
//! re-balancing moves transactions toward fast ranks) and IDD
//! (partitioned candidates, capacity-weighted bin packing shrinks the
//! slow ranks' candidate shares) under both placement policies.
//!
//! Every cell mines the identical frequent lattice (asserted): placement
//! moves work, never answers. The sweep is snapshotted to
//! `experiments/BENCH_hetero.json`; the cluster mix and placement policy
//! are encoded in the `scenario` label (`"50% slow x4 / adaptive"`).

use crate::report::{ms, signed_pct, write_bench_json, Table};
use crate::workloads;
use armine_metrics::json::{BenchDocument, JsonValue};
use armine_metrics::{names, Labels, MetricShard};
use armine_mpsim::{ClusterProfile, MachineProfile};
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams, ParallelRun, PlacementPolicy};

/// Processor count of the sweep.
const PROCS: usize = 16;
/// Transactions mined in every cell.
const TRANSACTIONS: usize = 8_000;

fn params() -> ParallelParams {
    ParallelParams::with_min_support(0.01)
        .page_size(100)
        .max_k(3)
}

/// The cluster mixes the sweep climbs: `slow` of [`PROCS`] ranks running
/// at `1/factor` speed. The slowed ranks are the highest-numbered ones —
/// which ranks are slow is irrelevant to both policies, only how many
/// and by how much.
fn mixes() -> Vec<(String, ClusterProfile)> {
    let base = MachineProfile::cray_t3e();
    let mut out = vec![("uniform".to_owned(), ClusterProfile::uniform(base.clone()))];
    for &(slow, factor) in &[(4usize, 2.0f64), (4, 4.0), (8, 2.0), (8, 8.0)] {
        let mut cluster = ClusterProfile::uniform(base.clone());
        for i in 0..slow {
            cluster = cluster.speed(PROCS - 1 - i, 1.0 / factor);
        }
        out.push((format!("{}% slow x{factor}", slow * 100 / PROCS), cluster));
    }
    out
}

/// One (mix, algorithm, placement) cell of the sweep.
#[derive(Debug, Clone)]
struct HeteroPoint {
    /// Mix + placement, e.g. `"50% slow x4 / adaptive"` — the `scenario`
    /// label in the JSON.
    scenario: String,
    /// Algorithm display name (`"CD"`, `"IDD"`).
    algorithm: String,
    /// Virtual response time in seconds.
    response_s: f64,
    /// Response time vs the same mix's **static** run, percent — negative
    /// on adaptive rows is the re-balancing gain; 0 on static rows.
    vs_static_pct: f64,
}

fn lattice_len(run: &ParallelRun) -> usize {
    run.frequent.iter().count()
}

/// The sweep at P=16: every mix × {CD, IDD} × both placements. Asserts
/// lattice equality across all cells and that adaptive placement beats
/// static on the most skewed mix for each algorithm.
fn measure(n: usize) -> Vec<HeteroPoint> {
    let dataset = workloads::t15_i6(n, 7272);
    let mixes = mixes();
    let mut points = Vec::new();
    let mut reference: Option<usize> = None;
    for algorithm in [Algorithm::Cd, Algorithm::Idd] {
        let name = algorithm.name();
        let mut best_gain = f64::INFINITY;
        for (mix, cluster) in &mixes {
            let miner = ParallelMiner::new(PROCS).cluster(cluster.clone());
            let mut static_s = 0.0;
            for placement in PlacementPolicy::ALL {
                let run = miner.mine(algorithm, &dataset, &params().placement(placement));
                let want = *reference.get_or_insert_with(|| lattice_len(&run));
                assert_eq!(
                    lattice_len(&run),
                    want,
                    "{name} on {mix} under {placement} diverged"
                );
                if placement == PlacementPolicy::Static {
                    static_s = run.response_time;
                }
                let vs_static_pct = (run.response_time / static_s - 1.0) * 100.0;
                if placement == PlacementPolicy::Adaptive && *mix != "uniform" {
                    best_gain = best_gain.min(vs_static_pct);
                }
                points.push(HeteroPoint {
                    scenario: format!("{mix} / {placement}"),
                    algorithm: name.to_owned(),
                    response_s: run.response_time,
                    vs_static_pct,
                });
            }
        }
        assert!(
            best_gain < 0.0,
            "adaptive placement should beat static on at least one skewed mix \
             for {name} at P={PROCS}, best was {best_gain:+.1}%"
        );
    }
    points
}

/// Runs the sweep, writes `experiments/BENCH_hetero.json`, and returns
/// the table.
pub(crate) fn run() -> Table {
    let points = measure(TRANSACTIONS);
    match write_bench_json("BENCH_hetero", &document(TRANSACTIONS, &points)) {
        Ok(path) => println!("(json: {})", path.display()),
        Err(e) => eprintln!("(json write failed: {e})"),
    }
    table(&points)
}

/// Renders the points as the table.
fn table(points: &[HeteroPoint]) -> Table {
    let mut table = Table::new(
        "Heterogeneous clusters — static vs adaptive placement (P=16)",
        &[
            "cluster / placement",
            "algorithm",
            "response ms",
            "vs static",
        ],
    );
    for p in points {
        table.row(&[
            &p.scenario,
            &p.algorithm,
            &ms(p.response_s),
            &signed_pct(p.vs_static_pct),
        ]);
    }
    table
}

/// The registry-snapshot document: each cell lands as a response gauge
/// and its gain-vs-static gauge under `{scenario, algorithm, procs}` —
/// the placement policy rides the `scenario` label, so static vs adaptive
/// is a label join on the mix prefix.
fn document(n: usize, points: &[HeteroPoint]) -> BenchDocument {
    let mut shard = MetricShard::new();
    for p in points {
        let labels = Labels::new()
            .with("scenario", p.scenario.clone())
            .with("algorithm", p.algorithm.clone())
            .with("procs", PROCS);
        shard.set_gauge(names::RUN_RESPONSE_SECONDS, labels.clone(), p.response_s);
        shard.set_gauge(names::RUN_OVERHEAD_PCT, labels, p.vs_static_pct);
    }
    BenchDocument::new("hetero_placement", shard.snapshot(&Labels::new()))
        .with_context("workload", JsonValue::Str("T15.I6".into()))
        .with_context("transactions", JsonValue::UInt(n as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_sweep_emits_all_cells_and_the_json() {
        crate::report::use_scratch_experiments_dir();
        let points = measure(600);
        // Five mixes x two algorithms x two placements.
        assert_eq!(table(&points).len(), 20);
        let doc = document(600, &points);
        let path = write_bench_json("BENCH_hetero", &doc).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), doc.to_json());
        assert_eq!(doc.benchmark, "hetero_placement");
        // Both placements of the most skewed mix made it into the
        // snapshot, and adaptive beat static there (the gauge is the
        // adaptive row's signed gain).
        let scenarios = doc.snapshot.label_values("scenario");
        assert!(
            scenarios.iter().any(|s| s == "50% slow x8 / adaptive"),
            "{scenarios:?}"
        );
        assert!(
            scenarios.iter().any(|s| s == "50% slow x8 / static"),
            "{scenarios:?}"
        );
    }
}
