//! Metrics-registry conformance: every parallel run's labeled snapshot
//! must reconcile **exactly** — bit-for-bit on floats, count-for-count
//! on integers — with the legacy ledgers it is a view over
//! (`RankStats`, per-pass `CounterStats`, `WallTimings`, the run
//! scalars), across all nine formulations and both execution backends.
//!
//! The suite also pins the label discipline: every series carries the
//! run's base labels (`algorithm`, `backend`, `counter`, `fault_plan`,
//! `procs`), uses only canonical label keys, and the whole snapshot
//! serializes through the schema-versioned exporter.

use armine::core::counter::CounterBackend;
use armine::core::Dataset;
use armine::datagen::QuestParams;
use armine::metrics::json::BenchDocument;
use armine::metrics::{names, LABEL_KEYS};
use armine::mpsim::{imbalance, CrashPoint, ExecBackend, FaultPlan};
use armine::parallel::{Algorithm, ParallelMiner, ParallelParams, ParallelRun};
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

/// Reconciles one run's snapshot against its legacy ledgers. Exact
/// equality throughout: counters are `u64`s, gauges are compared by
/// `f64::to_bits`.
fn assert_conforms(
    run: &ParallelRun,
    procs: usize,
    backend: ExecBackend,
    counter: CounterBackend,
    fault_plan: &str,
) {
    let snap = &run.metrics;
    assert!(!snap.is_empty(), "run produced an empty snapshot");

    // Label discipline: base labels on every series, canonical keys only.
    for series in snap.series() {
        assert_eq!(series.labels.get("algorithm"), Some(run.algorithm));
        assert_eq!(series.labels.get("procs"), Some(procs.to_string().as_str()));
        assert_eq!(series.labels.get("backend"), Some(backend.name()));
        assert_eq!(series.labels.get("counter"), Some(counter.name()));
        assert_eq!(series.labels.get("fault_plan"), Some(fault_plan));
        for (key, _) in series.labels.iter() {
            assert!(LABEL_KEYS.contains(&key), "non-canonical label {key:?}");
        }
    }

    // Per-rank RankStats — every rank, crashed ones included.
    assert_eq!(run.ranks.len(), procs);
    for (rank, rs) in run.ranks.iter().enumerate() {
        let r = rank.to_string();
        let gauge = |name: &str| {
            snap.gauge(name, &[("rank", &r)])
                .unwrap_or_else(|| panic!("missing {name} for rank {r}"))
        };
        for (field, seconds) in rs.named_times() {
            assert_eq!(
                gauge(&names::rank_time(field)).to_bits(),
                seconds.to_bits(),
                "rank {r} time {field}"
            );
        }
        for (field, count) in rs.named_counters() {
            assert_eq!(
                snap.counter_sum(&names::rank_counter(field), &[("rank", &r)]),
                count,
                "rank {r} counter {field}"
            );
        }
    }

    // The rank-clock histogram covers every rank and brackets the ledger.
    let clocks = snap
        .histogram(names::RUN_RANK_CLOCK_SECONDS, &[])
        .expect("rank-clock histogram missing");
    assert_eq!(clocks.count, procs as u64);
    let max_clock = run.ranks.iter().map(|r| r.clock).fold(f64::MIN, f64::max);
    assert_eq!(clocks.max.to_bits(), max_clock.to_bits());

    // Per-pass aggregates and the counting ledger.
    assert!(!run.passes.is_empty());
    for p in &run.passes {
        let k = p.k.to_string();
        let at = [("pass", k.as_str())];
        assert_eq!(
            snap.counter_sum(names::PASS_CANDIDATES, &at),
            p.candidates as u64
        );
        assert_eq!(
            snap.counter_sum(names::PASS_COUNTED_CANDIDATES, &at),
            p.counted_candidates as u64
        );
        assert_eq!(
            snap.counter_sum(names::PASS_FREQUENT, &at),
            p.frequent as u64
        );
        assert_eq!(
            snap.counter_sum(names::PASS_DB_SCANS, &at),
            p.db_scans as u64
        );
        assert_eq!(
            snap.gauge(names::PASS_TIME_SECONDS, &at).unwrap().to_bits(),
            p.time.to_bits()
        );
        assert_eq!(
            snap.gauge(names::PASS_CANDIDATE_IMBALANCE, &at)
                .unwrap()
                .to_bits(),
            p.candidate_imbalance.to_bits()
        );
        // The per-(rank, pass) counting counters sum to the pass's merged
        // tree stats, field for field.
        for (field, value) in p.tree_stats.named_fields() {
            assert_eq!(
                snap.counter_sum(&names::counting(field), &at),
                value,
                "pass {k} counting field {field}"
            );
        }
    }

    // Whole-run scalars and the derived accessors.
    assert_eq!(
        snap.gauge(names::RUN_RESPONSE_SECONDS, &[])
            .unwrap()
            .to_bits(),
        run.response_time.to_bits()
    );
    assert_eq!(
        snap.counter_sum(names::RUN_FREQUENT, &[]),
        run.frequent.len() as u64
    );
    let legacy_bytes: u64 = run.ranks.iter().map(|r| r.bytes_sent).sum();
    assert_eq!(run.total_bytes(), legacy_bytes);
    let legacy_imbalance = imbalance(run.ranks.iter().map(|r| r.busy));
    assert_eq!(
        run.compute_imbalance().to_bits(),
        legacy_imbalance.to_bits()
    );

    // Wall-clock gauges exist exactly when the native backend ran.
    if matches!(backend, ExecBackend::Native) {
        assert_eq!(run.wall.len(), procs);
        for (rank, wt) in run.wall.iter().enumerate() {
            let r = rank.to_string();
            for (field, seconds) in wt.named_times() {
                assert_eq!(
                    snap.gauge(&names::wall_time(field), &[("rank", &r)])
                        .unwrap()
                        .to_bits(),
                    seconds.to_bits(),
                    "rank {r} wall {field}"
                );
            }
        }
    } else {
        assert!(snap
            .gauge(&names::wall_time("total"), &[("rank", "0")])
            .is_none());
    }

    // The schema-versioned JSON exporter takes the whole snapshot: no
    // value it refuses (non-finite), one entry per series.
    let json = BenchDocument::new("conformance", snap.clone()).to_json();
    assert_eq!(json.matches("\n      \"name\": ").count(), snap.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random Quest datasets, all nine formulations, both backends: the
    /// snapshot is an exact view over the legacy ledgers.
    #[test]
    fn snapshots_reconcile_with_legacy_views(
        seed in 0u64..10_000,
        n in 120usize..300,
        procs in 2usize..5,
    ) {
        let dataset = quest(n, 60, 20, seed);
        let params = ParallelParams::with_min_support_count((n / 25) as u64)
            .page_size(40)
            .max_k(4);
        for algorithm in ALL_ALGORITHMS {
            for backend in ExecBackend::ALL {
                let run = ParallelMiner::new(procs)
                    .backend(backend)
                    .mine(algorithm, &dataset, &params);
                assert_conforms(&run, procs, backend, CounterBackend::HashTree, "none");
            }
        }
    }
}

/// All three counting backends record the same series set; the `counter`
/// base label distinguishes the runs, and only the vertical backend's
/// intersection-word ledger is non-zero. The run must reach pass 3
/// (`max_k >= 3`): pass 2 under the vertical backend counts through the
/// pair table, so a run that stops there legitimately records zero words.
#[test]
fn counting_backends_conform_and_are_distinguished_by_label() {
    let dataset = quest(250, 60, 20, 99);
    for counter in CounterBackend::ALL {
        let params = ParallelParams::with_min_support_count(10)
            .page_size(40)
            .max_k(3)
            .counter(counter);
        let run = ParallelMiner::new(4).mine(Algorithm::Cd, &dataset, &params);
        assert_conforms(&run, 4, ExecBackend::Sim, counter, "none");
        let words = run
            .metrics
            .counter_sum(&names::counting("intersection_words"), &[]);
        if matches!(counter, CounterBackend::Vertical) {
            assert!(words > 0, "vertical backend recorded no intersections");
        } else {
            assert_eq!(
                words,
                0,
                "{} backend recorded intersections",
                counter.name()
            );
        }
    }
}

/// A faulted run (drops + a mid-run crash) still reconciles exactly on
/// both backends, carries the plan's canonical label on every series,
/// and its fault counters agree with the legacy accessors.
#[test]
fn faulted_runs_conform_and_carry_the_plan_label() {
    let dataset = quest(300, 60, 20, 77);
    let params = ParallelParams::with_min_support_count(12)
        .page_size(40)
        .max_k(3);
    let plan = FaultPlan::new()
        .seed(5)
        .drop_rate(0.02)
        .crash(1, CrashPoint::AtPass(2));
    for backend in ExecBackend::ALL {
        let run = ParallelMiner::new(4)
            .backend(backend)
            .mine_with_faults(Algorithm::Cd, &dataset, &params, Some(&plan))
            .expect("the crash plan is recoverable");
        assert_conforms(&run, 4, backend, CounterBackend::HashTree, &plan.label());
        assert!(
            run.total_recoveries() > 0,
            "{backend:?} run never recovered"
        );
        assert_eq!(
            run.metrics
                .counter_sum(&names::rank_counter("recoveries"), &[]),
            run.total_recoveries()
        );
        assert_eq!(
            run.metrics
                .counter_sum(&names::rank_counter("retransmits"), &[]),
            run.total_retransmits()
        );
        assert_eq!(
            run.metrics
                .counter_sum(&names::rank_counter("timeouts"), &[]),
            run.total_timeouts()
        );
    }
}
