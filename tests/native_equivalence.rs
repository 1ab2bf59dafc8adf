//! Native-vs-sim backend equivalence: the execution backend changes how
//! time is accounted, never what is mined. Message matching is by
//! `(scope, src, tag)` — not arrival time — so the same pass drivers must
//! produce identical frequent itemsets and rules on both backends, and
//! two native runs must agree with each other despite real scheduling
//! nondeterminism. Nor does it change what the model counts: every exact
//! counter of a run is the same on both backends.

use armine::core::apriori::{Apriori, AprioriParams};
use armine::core::rules::generate_rules;
use armine::core::{Dataset, ItemSet};
use armine::datagen::QuestParams;
use armine::metrics::MetricValue;
use armine::mpsim::ExecBackend;
use armine::parallel::{Algorithm, FaultRunError, ParallelMiner, ParallelParams, ParallelRun};
use proptest::prelude::*;

const ALL_ALGORITHMS: [Algorithm; 9] = [
    Algorithm::Cd,
    Algorithm::Npa,
    Algorithm::Dd,
    Algorithm::DdComm,
    Algorithm::Idd,
    Algorithm::IddSingleSource,
    Algorithm::Hd { group_threshold: 8 },
    Algorithm::Hpa { eld_permille: 100 },
    Algorithm::Pdm {
        buckets: 1 << 10,
        filter_passes: 1,
    },
];

fn quest(n: usize, items: u32, patterns: usize, seed: u64) -> Dataset {
    QuestParams::paper_t15_i6()
        .num_transactions(n)
        .num_items(items)
        .num_patterns(patterns)
        .seed(seed)
        .generate()
}

fn lattice(run: &ParallelRun) -> Vec<(ItemSet, u64)> {
    run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every formulation mines the identical lattice and rules on both
    /// backends, across random Quest datasets and processor counts.
    #[test]
    fn backends_mine_identical_itemsets_and_rules(
        seed in 0u64..10_000,
        n in 150usize..400,
        procs in 2usize..5,
    ) {
        let dataset = quest(n, 70, 25, seed);
        let params = ParallelParams::with_min_support_count((n / 30) as u64)
            .page_size(40)
            .max_k(4);
        for algorithm in ALL_ALGORITHMS {
            let run_on = |backend| {
                ParallelMiner::new(procs)
                    .backend(backend)
                    .mine(algorithm, &dataset, &params)
            };
            let sim = run_on(ExecBackend::Sim);
            let native = run_on(ExecBackend::Native);
            prop_assert_eq!(
                lattice(&sim),
                lattice(&native),
                "{} lattice diverged across backends",
                algorithm.name()
            );
            prop_assert_eq!(
                generate_rules(&sim.frequent, 0.7),
                generate_rules(&native.frequent, 0.7),
                "{} rules diverged across backends",
                algorithm.name()
            );
        }
    }
}

/// Two native runs of the same configuration agree exactly — real thread
/// scheduling must not leak into the mined output.
#[test]
fn native_runs_are_deterministic() {
    let dataset = quest(400, 90, 30, 515);
    let params = ParallelParams::with_min_support_count(10)
        .page_size(50)
        .max_k(4);
    for algorithm in ALL_ALGORITHMS {
        let run_once = || {
            ParallelMiner::new(4)
                .backend(ExecBackend::Native)
                .mine(algorithm, &dataset, &params)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(lattice(&a), lattice(&b), "{} itemsets", algorithm.name());
        assert_eq!(
            generate_rules(&a.frequent, 0.6),
            generate_rules(&b.frequent, 0.6),
            "{} rules",
            algorithm.name()
        );
    }
}

/// The full miner on native ranks of a heterogeneous cluster, under
/// adaptive placement, mines the lattice of the homogeneous static sim
/// run: the slow rank really sleeps and sheds work, and neither changes
/// an answer.
#[test]
fn native_adaptive_placement_on_a_slow_rank_mines_the_same_lattice() {
    use armine::mpsim::{ClusterProfile, MachineProfile};
    use armine::parallel::PlacementPolicy;
    let dataset = quest(400, 90, 30, 7272);
    let params = ParallelParams::with_min_support_count(10)
        .page_size(50)
        .max_k(4);
    let cluster = ClusterProfile::uniform(MachineProfile::cray_t3e()).speed(3, 0.25);
    for algorithm in [Algorithm::Cd, Algorithm::Idd] {
        let reference = ParallelMiner::new(4).mine(algorithm, &dataset, &params);
        let native = ParallelMiner::new(4)
            .cluster(cluster.clone())
            .backend(ExecBackend::Native)
            .mine(
                algorithm,
                &dataset,
                &params.placement(PlacementPolicy::Adaptive),
            );
        assert_eq!(
            lattice(&native),
            lattice(&reference),
            "{} diverged",
            algorithm.name()
        );
    }
}

/// Every formulation mines exactly the serial lattice on both backends
/// when the lattice is deep: eleven levels, where HPA ships millions of
/// potential candidates per pass and the partitioned formulations cut
/// C_k for k up to 11.
#[test]
fn every_formulation_mines_a_deep_lattice_on_both_backends() {
    let dataset = QuestParams::paper_t15_i6()
        .num_transactions(400)
        .num_items(60)
        .num_patterns(10)
        .avg_transaction_len(10.0)
        .avg_pattern_len(7.0)
        .seed(7)
        .generate();
    let min_count = 20;
    let serial = Apriori::new(AprioriParams::with_min_support_count(min_count))
        .mine(dataset.transactions())
        .frequent;
    assert_eq!(serial.max_len(), 11, "the lattice must be deep");
    let want: Vec<(ItemSet, u64)> = serial.iter().map(|(s, c)| (s.clone(), c)).collect();
    let params = ParallelParams::with_min_support_count(min_count).page_size(40);
    for algorithm in ALL_ALGORITHMS {
        for backend in ExecBackend::ALL {
            let run = ParallelMiner::new(3)
                .backend(backend)
                .mine(algorithm, &dataset, &params);
            assert!(lattice(&run) == want, "{} on {backend}", algorithm.name());
        }
    }
}

/// Native equals sim on every exact counter, not only on answers: for all
/// nine formulations, every `counter`-kind series of the run's metrics
/// (the counting ledger per rank and pass, messages and bytes per rank,
/// candidates, scans and frequent sets per pass) has the same name,
/// labels and value on both backends, apart from the `backend` label
/// itself. The fault counters, which wall-clock deadlines decide on
/// native, are left out by name; time series are gauges.
#[test]
fn native_equals_sim_on_every_exact_counter() {
    let dataset = quest(300, 70, 25, 4242);
    let params = ParallelParams::with_min_support_count(10)
        .page_size(40)
        .max_k(4);
    let wall_dependent = ["retransmits", "timeouts", "recoveries"];
    for algorithm in ALL_ALGORITHMS {
        let counters = |backend| {
            let run = ParallelMiner::new(4)
                .backend(backend)
                .mine(algorithm, &dataset, &params);
            let series = run.metrics.series().to_vec();
            let exact = series.into_iter().filter(|s| {
                matches!(s.value, MetricValue::Counter(_))
                    && !wall_dependent.iter().any(|w| s.name.ends_with(w))
            });
            exact
                .map(|s| {
                    let labels = s.labels.iter().filter(|&(key, _)| key != "backend");
                    let labels: Vec<_> = labels.map(|(k, v)| (k, v.to_owned())).collect();
                    (s.name, labels, s.value)
                })
                .collect::<Vec<_>>()
        };
        let (name, sim) = (algorithm.name(), counters(ExecBackend::Sim));
        assert!(sim.len() > 100, "{name}: {} series", sim.len());
        assert_eq!(counters(ExecBackend::Native), sim, "{name}");
    }
}

/// A support look-up is a binary search in its level, so every
/// formulation must hand back each `F_k` as `k`-sets in strictly ascending
/// order: all nine on sim, and CD, IDD and HD on native ranks.
#[test]
fn every_level_of_every_lattice_is_strictly_ascending() {
    let dataset = quest(400, 90, 30, 919);
    let params = ParallelParams::with_min_support_count(10)
        .page_size(50)
        .max_k(4);
    let hd = Algorithm::Hd { group_threshold: 8 };
    let native = [Algorithm::Cd, Algorithm::Idd, hd];
    let sim_runs = ALL_ALGORITHMS.map(|algorithm| (algorithm, ExecBackend::Sim));
    let native_runs = native.map(|algorithm| (algorithm, ExecBackend::Native));
    for (algorithm, backend) in sim_runs.into_iter().chain(native_runs) {
        let run = ParallelMiner::new(4)
            .backend(backend)
            .mine(algorithm, &dataset, &params);
        let on = format!("{} on {backend}", algorithm.name());
        assert_eq!(run.frequent.max_len(), 4, "{on}");
        for k in 1..=4 {
            let level = run.frequent.level(k);
            assert!(level.iter().all(|(set, _)| set.len() == k), "{on}: F_{k}");
            assert!(level.windows(2).all(|w| w[0].0 < w[1].0), "{on}: F_{k}");
        }
    }
}

/// Native runs report measured wall seconds in the one per-rank record,
/// `RankStats`, where sim runs report virtual ones; the probe's
/// `ParallelRun::wall` view over it is filled only on native. (Per-pass
/// times are reconciled in `tests/metrics_conformance.rs`.)
#[test]
fn wall_timings_populated_only_on_native() {
    let dataset = quest(300, 70, 25, 99);
    let params = ParallelParams::with_min_support_count(9).max_k(3);
    let procs = 4;
    let native = ParallelMiner::new(procs).backend(ExecBackend::Native).mine(
        Algorithm::Cd,
        &dataset,
        &params,
    );
    assert_eq!(native.ranks.len(), procs);
    for (rank, r) in native.ranks.iter().enumerate() {
        assert!(r.clock > 0.0, "rank {rank} clock");
        assert!(
            r.busy + r.idle + r.io <= r.clock + 1e-9,
            "rank {rank}: categories exceed the clock"
        );
    }
    // Measured response time is the slowest rank's clock.
    let slowest = native.ranks.iter().map(|r| r.clock).fold(0.0, f64::max);
    assert_eq!(native.response_time.to_bits(), slowest.to_bits());
    assert_eq!(native.wall.len(), procs);
    for (w, r) in native.wall.iter().zip(&native.ranks) {
        assert_eq!(w.counting.to_bits(), r.busy.to_bits());
        assert_eq!(w.exchange.to_bits(), r.idle.to_bits());
    }
    let sim = ParallelMiner::new(procs).mine(Algorithm::Cd, &dataset, &params);
    assert!(sim.wall.is_empty(), "sim runs need no second record");
}

/// Fault plans run for real on the native backend: transient faults
/// (drops, delays, stragglers) cost wall time — retransmits really back
/// off, delayed messages really wait — but never change what is mined.
#[test]
fn native_backend_runs_transient_fault_plans_for_real() {
    use armine::mpsim::FaultPlan;
    let dataset = quest(200, 50, 15, 3);
    let params = ParallelParams::with_min_support_count(6).max_k(3);
    let plan = FaultPlan::new()
        .seed(1)
        .drop_rate(0.15)
        .rto(5e-5)
        .slowdown(1, 2.0);
    let clean = ParallelMiner::new(3).mine(Algorithm::Cd, &dataset, &params);
    let faulted = ParallelMiner::new(3)
        .backend(ExecBackend::Native)
        .mine_with_faults(Algorithm::Cd, &dataset, &params, Some(&plan))
        .expect("transient faults never kill a run");
    assert_eq!(lattice(&faulted), lattice(&clean));
    assert!(faulted.total_retransmits() > 0, "drops must really resend");
    assert!(
        faulted
            .ranks
            .iter()
            .all(|r| r.busy + r.idle + r.io <= r.clock + 1e-9),
        "every rank's wall record survives the faulted run: {:?}",
        faulted.ranks
    );
}

/// A plan out of range for the rank count is rejected up front on either
/// backend, naming the offending rank.
#[test]
fn out_of_range_plans_are_rejected_on_both_backends() {
    use armine::mpsim::{CrashPoint, FaultPlan};
    let dataset = quest(120, 40, 10, 3);
    let params = ParallelParams::with_min_support_count(5).max_k(3);
    let plan = FaultPlan::new().crash(7, CrashPoint::AtPass(2));
    for backend in ExecBackend::ALL {
        let err = ParallelMiner::new(2)
            .backend(backend)
            .mine_with_faults(Algorithm::Cd, &dataset, &params, Some(&plan))
            .unwrap_err();
        assert!(
            matches!(
                err,
                FaultRunError::InvalidPlan(ref why)
                    if why.contains("rank 7") && why.contains("2 ranks")
            ),
            "{backend}: {err}"
        );
    }
}
