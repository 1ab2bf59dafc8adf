//! Canonical metric names.
//!
//! Naming convention: `armine.<layer>.<noun>[_<unit>]` where `<layer>`
//! is the ledger a series generalizes — `counting` (the `CounterStats`
//! op ledger), `rank` (the simulator's `RankStats`, the one per-rank time
//! record: virtual seconds on sim, wall seconds on native), `pass`
//! (per-pass aggregates), `run` (whole-run scalars). Units are spelled in
//! the name (`_seconds`, `_bytes`) so a reader never guesses; unitless
//! counts carry none.

/// Prefix for `CounterStats` fields: `armine.counting.<field>`.
pub const COUNTING_PREFIX: &str = "armine.counting.";
/// Prefix for `RankStats` series: `armine.rank.<field>[_seconds]`.
pub const RANK_PREFIX: &str = "armine.rank.";

/// Per-(rank, pass) time of one committed pass, from the rank's previous
/// commit to this one (gauge, seconds; virtual on sim, wall on native).
pub const RANK_PASS_SECONDS: &str = "armine.rank.pass_seconds";

/// Candidates generated in a pass (counter, labeled `pass`).
pub const PASS_CANDIDATES: &str = "armine.pass.candidates";
/// Candidates this rank actually counted in a pass (counter).
pub const PASS_COUNTED_CANDIDATES: &str = "armine.pass.counted_candidates";
/// Frequent itemsets found in a pass (counter, labeled `pass`).
pub const PASS_FREQUENT: &str = "armine.pass.frequent_itemsets";
/// Database scans performed in a pass (counter, labeled `pass`).
pub const PASS_DB_SCANS: &str = "armine.pass.db_scans";
/// Virtual/wall end-to-end time of a pass (gauge, seconds, labeled `pass`).
pub const PASS_TIME_SECONDS: &str = "armine.pass.time_seconds";
/// Candidate-count imbalance across ranks in a pass (gauge, labeled `pass`).
pub const PASS_CANDIDATE_IMBALANCE: &str = "armine.pass.candidate_imbalance";

/// Whole-run response time: the slowest rank's clock (gauge, seconds).
pub const RUN_RESPONSE_SECONDS: &str = "armine.run.response_seconds";
/// Total frequent itemsets in the mined lattice (counter).
pub const RUN_FREQUENT: &str = "armine.run.frequent_itemsets";
/// Run-total retransmitted messages under a fault plan (counter).
pub const RUN_RETRANSMITS: &str = "armine.run.retransmits";
/// Run-total ack timeouts under a fault plan (counter).
pub const RUN_TIMEOUTS: &str = "armine.run.timeouts";
/// Run-total pass recoveries after crashes (counter).
pub const RUN_RECOVERIES: &str = "armine.run.recoveries";
/// Response-time overhead vs the fault-free baseline, percent (gauge).
pub const RUN_OVERHEAD_PCT: &str = "armine.run.overhead_pct";

/// `armine.counting.<field>` for a `CounterStats` field name.
pub fn counting(field: &str) -> String {
    format!("{COUNTING_PREFIX}{field}")
}

/// `armine.rank.<field>_seconds` for a `RankStats` time field.
pub fn rank_time(field: &str) -> String {
    format!("{RANK_PREFIX}{field}_seconds")
}

/// `armine.rank.<field>` for a `RankStats` counter field.
pub fn rank_counter(field: &str) -> String {
    format!("{RANK_PREFIX}{field}")
}
