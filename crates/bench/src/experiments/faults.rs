//! Fault-overhead experiment: how much virtual response time the
//! ack/retransmit machinery and the pass-boundary recovery protocol cost
//! as the injected fault rate grows.
//!
//! Three sweeps:
//!
//! 1. **Transient faults** — at P=64, message drop rate 0 → 20% (each
//!    drop pays an exponential-backoff retransmission timeout at the
//!    sender). Reported as absolute response time and overhead relative
//!    to the fault-free run, for CD (reduction-dominated traffic) and HD
//!    (ring pipelines within grid columns).
//! 2. **Crash recovery** — at P=64, one rank dies at a pass boundary, on
//!    top of a fixed 2% drop rate. The survivors adopt its transaction
//!    partitions and re-execute the interrupted pass; the overhead column
//!    isolates what that re-execution plus the shifted load balance
//!    costs.
//! 3. **Scenario ladder** — at P=4, where one straggler or one lost rank
//!    is a quarter of the machine: fault-free, transient drops, a
//!    straggler, and a mid-run crash, snapshotted to
//!    `experiments/BENCH_faults.json`.
//!
//! Every run mines the identical frequent lattice (asserted here): the
//! fault layer may cost time, never answers.

use crate::report::{ms, signed_pct, write_bench_json, Table};
use crate::workloads;
use armine_metrics::json::{BenchDocument, JsonValue};
use armine_metrics::{names, Labels, MetricShard};
use armine_mpsim::{CrashPoint, FaultPlan};
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams, ParallelRun};

const PROCS: usize = 64;

fn params() -> ParallelParams {
    ParallelParams::with_min_support(0.01)
        .page_size(100)
        .max_k(3)
}

fn mine(miner: &ParallelMiner, algorithm: Algorithm, plan: Option<&FaultPlan>) -> ParallelRun {
    let dataset = workloads::scaleup(PROCS, 100, 5252);
    miner
        .mine_with_faults(algorithm, &dataset, &params(), plan)
        .expect("every plan in this sweep is recoverable")
}

fn lattice_len(run: &ParallelRun) -> usize {
    run.frequent.iter().count()
}

/// Sweep 1: response time vs message drop rate (no crashes).
pub(crate) fn run_drop_rate() -> Table {
    let miner = ParallelMiner::new(PROCS);
    let hd = Algorithm::Hd {
        group_threshold: 500,
    };
    let cd_base = mine(&miner, Algorithm::Cd, None);
    let hd_base = mine(&miner, hd, None);
    let mut table = Table::new(
        "Fault overhead — response time vs message drop rate (P=64)",
        &[
            "drop rate",
            "CD ms",
            "CD overhead",
            "CD retransmits",
            "HD ms",
            "HD overhead",
            "HD retransmits",
        ],
    );
    for permille in [0u32, 10, 50, 100, 200] {
        let plan = FaultPlan::new()
            .seed(u64::from(permille) + 1)
            .drop_rate(f64::from(permille) / 1000.0);
        let cd = mine(&miner, Algorithm::Cd, Some(&plan));
        let hd_run = mine(&miner, hd, Some(&plan));
        assert_eq!(lattice_len(&cd), lattice_len(&cd_base));
        assert_eq!(lattice_len(&hd_run), lattice_len(&hd_base));
        table.row(&[
            &format!("{:.1}%", f64::from(permille) / 10.0),
            &ms(cd.response_time),
            &signed_pct((cd.response_time / cd_base.response_time - 1.0) * 100.0),
            &cd.total_retransmits(),
            &ms(hd_run.response_time),
            &signed_pct((hd_run.response_time / hd_base.response_time - 1.0) * 100.0),
            &hd_run.total_retransmits(),
        ]);
    }
    table
}

/// Sweep 2: cost of losing one rank at each pass boundary (2% drops).
pub(crate) fn run_crash_recovery() -> Table {
    let miner = ParallelMiner::new(PROCS);
    let baseline = mine(&miner, Algorithm::Cd, None);
    let mut table = Table::new(
        "Fault overhead — one rank crash at a pass boundary, CD, 2% drops (P=64)",
        &["crash", "response ms", "overhead", "recoveries", "timeouts"],
    );
    let transient = FaultPlan::new().seed(77).drop_rate(0.02);
    let mut scenarios = vec![("none".to_owned(), transient.clone())];
    for pass in [2usize, 3] {
        scenarios.push((
            format!("rank 17 @ pass {pass}"),
            transient.clone().crash(17, CrashPoint::AtPass(pass)),
        ));
    }
    for (label, plan) in scenarios {
        let run = mine(&miner, Algorithm::Cd, Some(&plan));
        assert_eq!(lattice_len(&run), lattice_len(&baseline));
        table.row(&[
            &label,
            &ms(run.response_time),
            &signed_pct((run.response_time / baseline.response_time - 1.0) * 100.0),
            &run.total_recoveries(),
            &run.total_timeouts(),
        ]);
    }
    table
}

/// Processor count of the scenario ladder.
const SCENARIO_PROCS: usize = 4;
/// Transactions mined on every rung of the scenario ladder.
const SCENARIO_TRANSACTIONS: usize = 20_000;

/// One rung of the scenario ladder.
#[derive(Debug, Clone)]
struct FaultPoint {
    /// Scenario label ("fault-free", "drops 5%", …).
    scenario: &'static str,
    /// Virtual response time in seconds.
    response_s: f64,
    /// Overhead vs the fault-free rung, percent.
    overhead_pct: f64,
    /// Fault counters of the run.
    retransmits: u64,
    /// Failure-detector timeouts.
    timeouts: u64,
    /// Committed recoveries.
    recoveries: u64,
    /// Canonical [`FaultPlan::label`] of the injected plan (`"none"` for
    /// the fault-free baseline) — the `fault_plan` label in the JSON.
    fault_plan: String,
}

/// The scenario ladder: transient drops, a straggler, and a mid-run
/// crash, each against the fault-free baseline.
fn scenarios() -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("fault-free", None),
        ("drops 5%", Some(FaultPlan::new().seed(11).drop_rate(0.05))),
        (
            "straggler 2x",
            Some(FaultPlan::new().seed(12).slowdown(1, 2.0)),
        ),
        (
            "crash @ pass 2",
            Some(
                FaultPlan::new()
                    .seed(13)
                    .drop_rate(0.02)
                    .crash(2, CrashPoint::AtPass(2)),
            ),
        ),
    ]
}

/// Sweep 3: the scenario ladder (CD, P=4). Lattice equality across every
/// rung is asserted — faults cost time, never answers.
fn measure_scenarios(n: usize) -> Vec<FaultPoint> {
    let dataset = workloads::t15_i6(n, 6161);
    let params = ParallelParams::with_min_support(0.01)
        .page_size(500)
        .max_k(3);
    let miner = ParallelMiner::new(SCENARIO_PROCS);
    let mut points = Vec::new();
    let mut reference: Option<(usize, f64)> = None;
    for (scenario, plan) in scenarios() {
        let run = miner
            .mine_with_faults(Algorithm::Cd, &dataset, &params, plan.as_ref())
            .expect("every scenario in this sweep is recoverable");
        let (want, base) = *reference.get_or_insert_with(|| (lattice_len(&run), run.response_time));
        assert_eq!(lattice_len(&run), want, "{scenario} diverged");
        points.push(FaultPoint {
            scenario,
            response_s: run.response_time,
            overhead_pct: (run.response_time / base - 1.0) * 100.0,
            retransmits: run.total_retransmits(),
            timeouts: run.total_timeouts(),
            recoveries: run.total_recoveries(),
            fault_plan: plan
                .as_ref()
                .map_or_else(|| "none".to_owned(), FaultPlan::label),
        });
    }
    points
}

/// Runs sweep 3, writes `experiments/BENCH_faults.json`, and returns its
/// table.
pub(crate) fn run_scenarios() -> Table {
    let points = measure_scenarios(SCENARIO_TRANSACTIONS);
    match write_bench_json("BENCH_faults", &document(SCENARIO_TRANSACTIONS, &points)) {
        Ok(path) => println!("(json: {})", path.display()),
        Err(e) => eprintln!("(json write failed: {e})"),
    }
    scenario_table(&points)
}

/// Renders sweep 3's points as a table.
fn scenario_table(points: &[FaultPoint]) -> Table {
    let mut table = Table::new(
        "Fault overhead — scenario ladder (CD, P=4)",
        &[
            "scenario",
            "response ms",
            "overhead",
            "retransmits",
            "timeouts",
            "recoveries",
        ],
    );
    for p in points {
        table.row(&[
            &p.scenario,
            &ms(p.response_s),
            &signed_pct(p.overhead_pct),
            &p.retransmits,
            &p.timeouts,
            &p.recoveries,
        ]);
    }
    table
}

/// The registry-snapshot document: each rung lands as response/overhead
/// gauges and the three fault counters under
/// `{algorithm="CD", fault_plan, procs, scenario}`.
fn document(n: usize, points: &[FaultPoint]) -> BenchDocument {
    let mut shard = MetricShard::new();
    for p in points {
        let labels = Labels::new()
            .with("scenario", p.scenario)
            .with("fault_plan", p.fault_plan.clone())
            .with("algorithm", "CD")
            .with("procs", SCENARIO_PROCS);
        shard.set_gauge(names::RUN_RESPONSE_SECONDS, labels.clone(), p.response_s);
        shard.set_gauge(names::RUN_OVERHEAD_PCT, labels.clone(), p.overhead_pct);
        shard.incr(names::RUN_RETRANSMITS, labels.clone(), p.retransmits);
        shard.incr(names::RUN_TIMEOUTS, labels.clone(), p.timeouts);
        shard.incr(names::RUN_RECOVERIES, labels, p.recoveries);
    }
    BenchDocument::new("fault_overhead_scenarios", shard.snapshot(&Labels::new()))
        .with_context("workload", JsonValue::Str("T15.I6".into()))
        .with_context("transactions", JsonValue::UInt(n as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_sweep_emits_all_cells_and_the_json() {
        crate::report::use_scratch_experiments_dir();
        let points = measure_scenarios(400);
        let table = scenario_table(&points);
        assert_eq!(table.len(), 4, "four scenarios");
        let crash_row = &table.rows()[3];
        assert!(crash_row[0].contains("crash"), "{crash_row:?}");
        let recoveries: u64 = crash_row[5].parse().unwrap();
        assert!(recoveries > 0, "crash scenario must recover: {crash_row:?}");
        let doc = document(400, &points);
        let path = write_bench_json("BENCH_faults", &doc).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), doc.to_json());
        assert_eq!(doc.benchmark, "fault_overhead_scenarios");
        // The crash scenario's committed recoveries reached the snapshot.
        let recoveries = doc
            .snapshot
            .counter_sum(names::RUN_RECOVERIES, &[("scenario", "crash @ pass 2")]);
        assert!(recoveries > 0, "crash row lost its recoveries");
        // The crash plan's canonical label reached the fault_plan axis.
        assert!(
            doc.snapshot
                .label_values("fault_plan")
                .iter()
                .any(|v| v.contains("crash2@pass2")),
            "{:?}",
            doc.snapshot.label_values("fault_plan")
        );
    }
}
