//! Fault injection end-to-end: every recoverable fault plan — message
//! drops, stragglers, and up to one rank crash — must leave the mined
//! frequent itemsets and association rules **bit-identical** to a
//! fault-free run, for every formulation, on **both** execution backends
//! (virtual-time injection under sim, real thread deaths and wall-clock
//! timers under native); and on sim the same plan must reproduce the
//! same virtual clocks and fault counters.

mod common;

use armine::core::rules::generate_rules;
use armine::metrics::json::BenchDocument;
use armine::mpsim::{CrashPoint, ExecBackend, FaultPlan};
use armine::parallel::{Algorithm, FaultRunError, ParallelMiner, ParallelParams};
use common::{lattice, quest};
use proptest::prelude::*;

const PROCS: usize = 4;

const ALGOS: [Algorithm; 9] = [
    Algorithm::Cd,
    Algorithm::Dd,
    Algorithm::DdComm,
    Algorithm::Idd,
    Algorithm::Hd {
        group_threshold: 30,
    },
    Algorithm::Pdm {
        buckets: 256,
        filter_passes: 1,
    },
    Algorithm::Npa,
    Algorithm::Hpa { eld_permille: 200 },
    Algorithm::IddSingleSource,
];

fn dataset() -> armine_core::Dataset {
    quest(160, 50, 20, 23)
}

fn params() -> ParallelParams {
    ParallelParams::with_min_support_count(6)
        .page_size(30)
        .max_k(3)
}

/// Builds a recoverable fault plan from generated primitives: drops, up
/// to two stragglers, and at most one crash (`crash_choice` encodes
/// none / crash-at-pass / crash-at-time and the victim rank).
fn build_plan(
    seed: u64,
    drop_permille: u32,
    straggler_ranks: &std::collections::BTreeSet<usize>,
    straggler_tenths: u32,
    crash_choice: usize,
    crash_pass: usize,
    crash_time_micros: u64,
) -> FaultPlan {
    let mut plan = FaultPlan::new()
        .seed(seed)
        .drop_rate(f64::from(drop_permille) / 1000.0);
    for &rank in straggler_ranks {
        plan = plan.slowdown(rank, f64::from(straggler_tenths) / 10.0);
    }
    if (1..=PROCS).contains(&crash_choice) {
        plan = plan.crash(crash_choice - 1, CrashPoint::AtPass(crash_pass));
    } else if crash_choice > PROCS {
        plan = plan.crash(
            crash_choice - 1 - PROCS,
            CrashPoint::AtTime(crash_time_micros as f64 * 1e-6),
        );
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The golden-fingerprint guarantee: any recoverable plan yields the
    /// fault-free lattice, for every formulation.
    #[test]
    fn recoverable_plans_preserve_the_lattice(
        seed in 0u64..1_000_000,
        drop_permille in 0u32..250,
        straggler_ranks in prop::collection::btree_set(0usize..PROCS, 0..=2),
        straggler_tenths in 12u32..30,
        crash_choice in 0usize..=2 * PROCS,
        crash_pass in 2usize..=3,
        crash_time_micros in 200u64..20_000,
    ) {
        let plan = build_plan(
            seed,
            drop_permille,
            &straggler_ranks,
            straggler_tenths,
            crash_choice,
            crash_pass,
            crash_time_micros,
        );
        let dataset = dataset();
        let params = params();
        let miner = ParallelMiner::new(PROCS);
        for algo in ALGOS {
            let clean = miner.mine(algo, &dataset, &params);
            let faulted = miner
                .mine_with_faults(algo, &dataset, &params, Some(&plan))
                .unwrap_or_else(|e| panic!("{} under {plan}: {e}", algo.name()));
            prop_assert_eq!(
                lattice(&faulted.frequent),
                lattice(&clean.frequent),
                "{} diverged under plan:\n{}",
                algo.name(),
                plan
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The same guarantee on the native backend, where the plan's faults
    /// are real: crashes kill worker threads, stragglers sleep, drops
    /// retransmit on wall-clock RTO timers, and dead peers are detected
    /// by `detect_timeout` deadlines — so this proptest completing at all
    /// is the no-hang property, and the lattice check is the recovery
    /// property. Fewer cases than the sim sweep because detector waits
    /// burn real milliseconds here.
    #[test]
    fn recoverable_plans_preserve_the_lattice_natively(
        seed in 0u64..1_000_000,
        drop_permille in 0u32..120,
        straggler_ranks in prop::collection::btree_set(0usize..PROCS, 0..=1),
        straggler_tenths in 12u32..25,
        crash_choice in 0usize..=2 * PROCS,
        crash_pass in 2usize..=3,
        crash_time_micros in 200u64..5_000,
    ) {
        // Tight wall-clock timers keep real retransmit backoffs and
        // failure-detector waits in the microsecond-to-millisecond range.
        let plan = build_plan(
            seed,
            drop_permille,
            &straggler_ranks,
            straggler_tenths,
            crash_choice,
            crash_pass,
            crash_time_micros,
        )
        .rto(5e-5)
        .detect_timeout(2e-3);
        let dataset = dataset();
        let params = params();
        let sim = ParallelMiner::new(PROCS);
        let native = ParallelMiner::new(PROCS).backend(ExecBackend::Native);
        for algo in ALGOS {
            let clean = sim.mine(algo, &dataset, &params);
            let faulted = native
                .mine_with_faults(algo, &dataset, &params, Some(&plan))
                .unwrap_or_else(|e| panic!("native {} under {plan}: {e}", algo.name()));
            prop_assert_eq!(
                lattice(&faulted.frequent),
                lattice(&clean.frequent),
                "native {} diverged under plan:\n{}",
                algo.name(),
                plan
            );
        }
    }
}

/// The acceptance scenario spelled out in the issue: message drops, a 2×
/// straggler, and one mid-pass rank crash — completed run, itemsets and
/// rules identical to fault-free, for every recoverable algorithm.
#[test]
fn drops_straggler_and_midpass_crash_reproduce_fault_free_results() {
    let dataset = dataset();
    let params = params();
    let miner = ParallelMiner::new(PROCS);
    let plan = FaultPlan::new()
        .seed(42)
        .drop_rate(0.05)
        .slowdown(0, 2.0)
        .slowdown(3, 2.0)
        .crash(1, CrashPoint::AtTime(0.0015));
    for algo in ALGOS {
        let clean = miner.mine(algo, &dataset, &params);
        let faulted = miner
            .mine_with_faults(algo, &dataset, &params, Some(&plan))
            .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
        assert_eq!(
            lattice(&faulted.frequent),
            lattice(&clean.frequent),
            "{}",
            algo.name()
        );
        assert!(
            faulted.total_recoveries() > 0,
            "{} never committed the recovery",
            algo.name()
        );
        assert!(faulted.total_retransmits() > 0, "{}", algo.name());
        // Rule generation runs on the recovered lattice: identical rules.
        let clean_rules = generate_rules(&clean.frequent, 0.5);
        let faulted_rules = generate_rules(&faulted.frequent, 0.5);
        assert_eq!(faulted_rules, clean_rules, "{}", algo.name());
    }
}

/// A run generates each pass's candidates once, in whichever rank asks
/// first, often rank 0. Rank 0 dying as it enters pass 2 or in the middle
/// of it costs the survivors nothing: CD, IDD and HD (on a 2×2 grid in pass
/// 2) mine the fault-free lattice on both backends, and on sim the same
/// plan twice writes byte-identical metrics.
#[test]
fn generating_rank_crashes_mine_the_fault_free_lattice() {
    let dataset = dataset();
    let params = params();
    let sim = ParallelMiner::new(PROCS);
    let native = ParallelMiner::new(PROCS).backend(ExecBackend::Native);
    let metrics_json = |run: &armine::parallel::ParallelRun| {
        BenchDocument::new("parallel_mine", run.metrics.clone()).to_json()
    };
    // Pass 2 runs from 0.14 ms to about 3 ms of virtual time.
    let plans = [CrashPoint::AtPass(2), CrashPoint::AtTime(0.0015)]
        .map(|at| FaultPlan::new().seed(11).crash(0, at));
    let algos = [
        Algorithm::Cd,
        Algorithm::Idd,
        Algorithm::Hd {
            group_threshold: 400,
        },
    ];
    for algo in algos {
        let clean = lattice(&sim.mine(algo, &dataset, &params).frequent);
        for plan in &plans {
            let on = format!("{} under {plan}", algo.name());
            let run = || {
                sim.mine_with_faults(algo, &dataset, &params, Some(plan))
                    .unwrap_or_else(|e| panic!("{on}: {e}"))
            };
            let (first, second) = (run(), run());
            assert_eq!(lattice(&first.frequent), clean, "{on}");
            assert!(first.total_recoveries() > 0, "{on}: no recovery");
            assert_eq!(metrics_json(&first), metrics_json(&second), "{on}");
            let plan = plan.clone().rto(5e-5).detect_timeout(2e-3);
            let faulted = native
                .mine_with_faults(algo, &dataset, &params, Some(&plan))
                .unwrap_or_else(|e| panic!("native {on}: {e}"));
            assert_eq!(lattice(&faulted.frequent), clean, "native {on}");
        }
    }
}

/// Same seed + same plan ⇒ bit-identical virtual clocks and fault
/// counters, rank by rank.
#[test]
fn faulted_runs_are_bit_deterministic() {
    let dataset = dataset();
    let params = params();
    let miner = ParallelMiner::new(PROCS);
    let plan = FaultPlan::new()
        .seed(7)
        .drop_rate(0.1)
        .slowdown(2, 1.7)
        .crash(3, CrashPoint::AtPass(2));
    let a = miner
        .mine_with_faults(Algorithm::Idd, &dataset, &params, Some(&plan))
        .unwrap();
    let b = miner
        .mine_with_faults(Algorithm::Idd, &dataset, &params, Some(&plan))
        .unwrap();
    assert_eq!(
        a.response_time.to_bits(),
        b.response_time.to_bits(),
        "response time must be bit-identical"
    );
    assert_eq!(a.ranks, b.ranks, "per-rank stats must be bit-identical");
    assert!(a.total_retransmits() > 0 && a.total_timeouts() > 0);
}

/// An unrecoverable plan (every rank crashes) errors cleanly instead of
/// hanging or panicking.
#[test]
fn unrecoverable_plan_errors_cleanly() {
    let mut plan = FaultPlan::new();
    for rank in 0..PROCS {
        plan = plan.crash(rank, CrashPoint::AtTime(0.0005 * (rank + 1) as f64));
    }
    let err = ParallelMiner::new(PROCS)
        .mine_with_faults(
            Algorithm::Hd {
                group_threshold: 30,
            },
            &dataset(),
            &params(),
            Some(&plan),
        )
        .unwrap_err();
    assert_eq!(err, FaultRunError::AllRanksCrashed);
}
