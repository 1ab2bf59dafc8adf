//! Metrics-registry conformance: every parallel run's labeled snapshot
//! must reconcile **exactly** — bit-for-bit on floats, count-for-count
//! on integers — with the legacy ledgers it is a view over
//! (`RankStats`, per-pass `CounterStats`, the run scalars), across all
//! nine formulations and both execution backends.
//!
//! The suite also pins the vocabulary: every series carries the run's
//! base labels (`algorithm`, `backend`, `counter`, `fault_plan`,
//! `procs`), uses only canonical label keys and announced names, and the
//! whole snapshot serializes through the schema-versioned exporter.

use armine::core::counter::CounterBackend;
use armine::core::Dataset;
use armine::datagen::QuestParams;
use armine::metrics::json::BenchDocument;
use armine::metrics::{names, MetricsSnapshot, LABEL_KEYS};
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

/// Every whole series name `armine::metrics::names` declares.
const ANNOUNCED_NAMES: [&str; 13] = [
    names::RANK_PASS_SECONDS,
    names::PASS_CANDIDATES,
    names::PASS_COUNTED_CANDIDATES,
    names::PASS_FREQUENT,
    names::PASS_DB_SCANS,
    names::PASS_TIME_SECONDS,
    names::PASS_CANDIDATE_IMBALANCE,
    names::RUN_RESPONSE_SECONDS,
    names::RUN_FREQUENT,
    names::RUN_RETRANSMITS,
    names::RUN_TIMEOUTS,
    names::RUN_RECOVERIES,
    names::RUN_OVERHEAD_PCT,
];

/// The name prefixes `armine::metrics::names` declares for ledger fields.
const ANNOUNCED_PREFIXES: [&str; 2] = [names::COUNTING_PREFIX, names::RANK_PREFIX];

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
        let name = series.name.as_str();
        assert!(
            ANNOUNCED_NAMES.contains(&name)
                || ANNOUNCED_PREFIXES.iter().any(|p| name.starts_with(p)),
            "unannounced series name {name:?}"
        );
        assert!(
            !name.starts_with("armine.wall.") && name != "armine.run.rank_clock_seconds",
            "a second time record is back: {name:?}"
        );
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

    assert_pass_seconds_partition_the_survivors_clocks(run, snap);

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

    // The schema-versioned JSON exporter takes the whole snapshot: no
    // value it refuses (non-finite), one entry per series, and only the
    // two kinds the registry has.
    let json = BenchDocument::new("conformance", snap.clone()).to_json();
    assert_eq!(json.matches("\n      \"name\": ").count(), snap.len());
    let kinds =
        json.matches("\"kind\": \"counter\"").count() + json.matches("\"kind\": \"gauge\"").count();
    assert_eq!(kinds, snap.len(), "a series of another kind was exported");
}

/// `armine.rank.pass_seconds{rank, pass}` holds one time per committed
/// pass of each survivor, on both backends: the rank's clock from its
/// previous commit (0 before the first) to this one. So a survivor's
/// passes sum to its last commit, which is no later than its final
/// clock, and the slowest survivor's running sum is where the per-pass
/// aggregate `ParallelPassMetrics::time` puts each pass's end. Sums are
/// compared with a tolerance: the differences do not telescope exactly
/// in `f64`.
fn assert_pass_seconds_partition_the_survivors_clocks(run: &ParallelRun, snap: &MetricsSnapshot) {
    let keys = |name: &str| -> Vec<(usize, usize)> {
        snap.select(name, &[])
            .map(|s| {
                let label = |key| s.labels.get(key).unwrap().parse().unwrap();
                (label("rank"), label("pass"))
            })
            .collect()
    };
    // The same (rank, pass) pairs as the survivors' counting ledgers.
    let timed = keys(names::RANK_PASS_SECONDS);
    assert_eq!(timed, keys(&names::counting("inserts")));
    let mut survivors: Vec<usize> = timed.iter().map(|&(rank, _)| rank).collect();
    survivors.dedup();
    let mut pass_ends = vec![0.0f64; run.passes.len()];
    for rank in survivors {
        let r = rank.to_string();
        let mut end = 0.0;
        for (p, pass_end) in run.passes.iter().zip(&mut pass_ends) {
            let k = p.k.to_string();
            let seconds = snap
                .gauge(names::RANK_PASS_SECONDS, &[("rank", &r), ("pass", &k)])
                .unwrap_or_else(|| panic!("rank {r} has no time for pass {k}"));
            assert!(seconds >= 0.0, "rank {r} pass {k}: {seconds}");
            end += seconds;
            *pass_end = pass_end.max(end);
        }
        let clock = run.ranks[rank].clock;
        assert!(
            end <= clock + 1e-9,
            "rank {r}: passes {end} > clock {clock}"
        );
    }
    let mut end = 0.0;
    for (p, &slowest) in run.passes.iter().zip(&pass_ends) {
        end += p.time;
        assert!(
            (slowest - end).abs() <= 1e-9 * end.max(1.0),
            "pass {}: slowest rank {slowest} vs aggregate {end}",
            p.k
        );
    }
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
