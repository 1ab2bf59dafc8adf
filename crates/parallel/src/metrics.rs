//! Per-pass and per-run measurements of a parallel mining run.

use armine_core::apriori::FrequentItemsets;
use armine_core::counter::CounterStats;
use armine_metrics::MetricsSnapshot;
use armine_mpsim::{imbalance, RankStats, WallTimings};

/// What one pass of a parallel run looked like.
#[derive(Debug, Clone, Default)]
pub struct ParallelPassMetrics {
    /// Pass number `k`.
    pub k: usize,
    /// `|C_k|` — total candidates this pass (as `apriori_gen` produced).
    pub candidates: usize,
    /// Candidates actually counted; below `candidates` when a hash filter
    /// pruned some (PDM).
    pub counted_candidates: usize,
    /// `|F_k|` — survivors.
    pub frequent: usize,
    /// Processor-grid configuration `(G, P/G)`: `(1, P)` means CD-like,
    /// `(P, 1)` means IDD-like (the notation of Table II).
    pub grid: (usize, usize),
    /// Hash-tree work counters summed over all ranks.
    pub tree_stats: CounterStats,
    /// Database scans this pass (CD exceeds 1 when memory-capped).
    pub db_scans: usize,
    /// Candidate-count imbalance of the partition (`max/avg − 1`);
    /// 0 for replicated-candidate algorithms.
    pub candidate_imbalance: f64,
    /// Virtual response time of this pass alone (seconds).
    pub time: f64,
}

impl ParallelPassMetrics {
    /// Average distinct leaf nodes visited per (processor, transaction)
    /// pairing — the y-axis of Figure 11.
    pub fn avg_leaf_visits_per_transaction(&self) -> f64 {
        self.tree_stats.avg_leaf_visits_per_transaction()
    }
}

/// The complete result of a parallel mining run.
#[derive(Debug, Clone, Default)]
pub struct ParallelRun {
    /// Which algorithm produced this run.
    pub algorithm: &'static str,
    /// Processor count.
    pub procs: usize,
    /// The discovered frequent itemsets (identical on every rank; verified
    /// in debug builds).
    pub frequent: FrequentItemsets,
    /// Per-pass measurements, `k = 1` first.
    pub passes: Vec<ParallelPassMetrics>,
    /// Response time of the whole run: max final clock (seconds). Virtual
    /// time on the sim backend, measured wall time on the native backend.
    pub response_time: f64,
    /// Per-rank time/traffic accounting.
    pub ranks: Vec<RankStats>,
    /// The resolved absolute minimum support count.
    pub min_count: u64,
    /// Per-rank wall-clock timings, indexed by rank; empty unless the run
    /// used [`armine_mpsim::ExecBackend::Native`].
    pub wall: Vec<WallTimings>,
    /// The run's labeled metrics snapshot: every ledger above, re-plumbed
    /// as named series (see `armine_metrics::names`) under the run's base
    /// labels.
    pub metrics: MetricsSnapshot,
}

impl ParallelRun {
    /// Total bytes moved during the run, summed over ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Compute-time load imbalance across ranks (`max/avg − 1`).
    pub fn compute_imbalance(&self) -> f64 {
        imbalance(self.ranks.iter().map(|r| r.busy))
    }

    /// Response time of pass `k` (0.0 if the pass never ran).
    pub fn pass_time(&self, k: usize) -> f64 {
        self.passes
            .iter()
            .find(|p| p.k == k)
            .map_or(0.0, |p| p.time)
    }

    /// Sum of db scans over all passes.
    pub fn total_db_scans(&self) -> usize {
        self.passes.iter().map(|p| p.db_scans).sum()
    }

    /// Transmission attempts lost to injected faults and re-sent after an
    /// ack-timeout backoff, summed over ranks (0 in fault-free runs).
    pub fn total_retransmits(&self) -> u64 {
        self.ranks.iter().map(|r| r.retransmits).sum()
    }

    /// Failure-detector timeouts (receives that concluded the awaited
    /// peer was dead), summed over ranks.
    pub fn total_timeouts(&self) -> u64 {
        self.ranks.iter().map(|r| r.timeouts).sum()
    }

    /// Committed recovery events (membership shrinks with work
    /// redistribution), summed over ranks.
    pub fn total_recoveries(&self) -> u64 {
        self.ranks.iter().map(|r| r.recoveries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_time_lookup() {
        let run = ParallelRun {
            passes: vec![
                ParallelPassMetrics {
                    k: 1,
                    time: 0.5,
                    ..Default::default()
                },
                ParallelPassMetrics {
                    k: 2,
                    time: 1.5,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(run.pass_time(2), 1.5);
        assert_eq!(run.pass_time(9), 0.0);
    }

    #[test]
    fn leaf_visit_average_delegates_to_tree_stats() {
        let m = ParallelPassMetrics {
            tree_stats: CounterStats {
                transactions: 10,
                distinct_leaf_visits: 30,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((m.avg_leaf_visits_per_transaction() - 3.0).abs() < 1e-12);
    }
}
