//! Recording a parallel run into the labeled metrics registry.
//!
//! There is one recording site: after the join, [`finish_snapshot`]
//! records everything the host assembles anyway — the survivors'
//! per-(rank, pass) counting ledgers (`RankPass::stats`, kept only for
//! **committed** passes, so aborted crash-recovery attempts never
//! pollute the series), per-rank `RankStats`, native `WallTimings`,
//! per-pass aggregates, and whole-run scalars. The result is one
//! [`MetricsSnapshot`] whose base labels identify the run (`algorithm`,
//! `backend`, `counter`, `fault_plan`, `procs`).
//!
//! Recording never touches the virtual clock — every call here is a
//! host-side map insert, so golden virtual-time fingerprints are
//! bit-identical with the registry enabled (pinned in
//! `tests/virtual_time_invariance.rs`).

use crate::common::RankOutput;
use crate::metrics::ParallelPassMetrics;
use armine_core::counter::CounterBackend;
use armine_metrics::{names, Labels, MetricShard, MetricsSnapshot};
use armine_mpsim::{ExecBackend, RankStats, WallTimings};

/// The run-identifying base labels stamped onto every series.
pub(crate) struct RunMeta {
    pub algorithm: &'static str,
    pub procs: usize,
    pub backend: ExecBackend,
    pub counter: CounterBackend,
    /// `FaultPlan::label()` of the injected plan, `"none"` without one.
    pub fault_plan: String,
}

/// Records the survivors' counting ledgers and the host-assembled
/// views, yielding the run's full snapshot.
///
/// `survivors` pairs each surviving rank's index with its output. All
/// seven ledger fields are recorded per (rank, pass), zeros included,
/// so the series set is identical across backends and the conformance
/// suite can reconcile field-for-field. Crashed ranks contribute no
/// ledger (matching the survivor-only `CounterStats` aggregation), but
/// their [`RankStats`] — like every rank's — are recorded here, so fault
/// counters and traffic totals cover the whole machine.
pub(crate) fn finish_snapshot(
    meta: &RunMeta,
    survivors: &[(usize, RankOutput)],
    ranks: &[RankStats],
    wall: &[WallTimings],
    passes: &[ParallelPassMetrics],
    response_time: f64,
    total_frequent: usize,
) -> MetricsSnapshot {
    let mut shard = MetricShard::new();
    for (rank, output) in survivors {
        for pass in &output.passes {
            for (field, value) in pass.stats.named_fields() {
                shard.incr(
                    &names::counting(field),
                    Labels::new().with("rank", rank).with("pass", pass.k),
                    value,
                );
            }
        }
    }
    for (rank, rs) in ranks.iter().enumerate() {
        let at = || Labels::new().with("rank", rank);
        for (field, seconds) in rs.named_times() {
            shard.set_gauge(&names::rank_time(field), at(), seconds);
        }
        for (field, count) in rs.named_counters() {
            shard.incr(&names::rank_counter(field), at(), count);
        }
        shard.observe(names::RUN_RANK_CLOCK_SECONDS, Labels::new(), rs.clock);
    }
    for (rank, wt) in wall.iter().enumerate() {
        for (field, seconds) in wt.named_times() {
            shard.set_gauge(
                &names::wall_time(field),
                Labels::new().with("rank", rank),
                seconds,
            );
        }
        // A crash-retried pass appears twice in pass_starts; the gauge
        // keeps the last (committed) attempt's duration.
        for (pass, seconds) in wt.pass_durations() {
            shard.set_gauge(
                names::WALL_PASS_SECONDS,
                Labels::new().with("rank", rank).with("pass", pass),
                seconds,
            );
        }
    }
    for p in passes {
        let at = || Labels::new().with("pass", p.k);
        shard.incr(names::PASS_CANDIDATES, at(), p.candidates as u64);
        shard.incr(
            names::PASS_COUNTED_CANDIDATES,
            at(),
            p.counted_candidates as u64,
        );
        shard.incr(names::PASS_FREQUENT, at(), p.frequent as u64);
        shard.incr(names::PASS_DB_SCANS, at(), p.db_scans as u64);
        shard.set_gauge(names::PASS_TIME_SECONDS, at(), p.time);
        shard.set_gauge(names::PASS_CANDIDATE_IMBALANCE, at(), p.candidate_imbalance);
    }
    shard.set_gauge(names::RUN_RESPONSE_SECONDS, Labels::new(), response_time);
    shard.incr(names::RUN_FREQUENT, Labels::new(), total_frequent as u64);
    shard.snapshot(
        &Labels::new()
            .with("algorithm", meta.algorithm)
            .with("backend", meta.backend.name())
            .with("counter", meta.counter.name())
            .with("fault_plan", &meta.fault_plan)
            .with("procs", meta.procs),
    )
}
