//! Figure 10 — scaleup on the Cray T3E: response time vs processor count
//! with the per-processor workload held constant (paper: 50K
//! transactions/processor, 0.1% minimum support, curves CD, IDD, HD, DD,
//! DD+comm).
//!
//! Expected shape: DD grows rapidly with P and is worst throughout;
//! DD+comm sits below DD (better communication, same redundant work); IDD
//! is far below both but drifts upward with P (load imbalance, shrinking
//! per-processor trees); CD and HD stay nearly flat, with HD edging out CD
//! at large P (no replicated tree build, reduction over M/G counts only).

use crate::report::Table;
use crate::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Transactions per processor (paper: 50_000).
const PER_PROC: usize = 400;
/// Minimum support fraction (paper: 0.1%; ours is higher because the
/// scaled database is 100× smaller — this keeps per-pass candidate counts
/// in the same proportion to N).
const MIN_SUPPORT: f64 = 0.01;
/// HD group threshold, scaled from the paper's 5K (Figure 10 run).
const HD_THRESHOLD: usize = 2000;

/// Runs the scaleup sweep over `procs_list`.
pub(crate) fn run(procs_list: &[usize]) -> Table {
    let mut table = Table::new(
        "Figure 10 — scaleup: response time (ms) vs P (constant work per processor)",
        &["P", "CD", "IDD", "HD", "DD", "DD+comm"],
    );
    for &procs in procs_list {
        let dataset = workloads::scaleup(procs, PER_PROC, 1010);
        let params = ParallelParams::with_min_support(MIN_SUPPORT).page_size(100);
        let miner = ParallelMiner::new(procs);
        let t = |algo: Algorithm| miner.mine(algo, &dataset, &params).response_time * 1e3;
        let (cd, idd, hd, dd, ddc) = (
            t(Algorithm::Cd),
            t(Algorithm::Idd),
            t(Algorithm::Hd {
                group_threshold: HD_THRESHOLD,
            }),
            t(Algorithm::Dd),
            t(Algorithm::DdComm),
        );
        table.row(&[
            &procs,
            &format!("{cd:.2}"),
            &format!("{idd:.2}"),
            &format!("{hd:.2}"),
            &format!("{dd:.2}"),
            &format!("{ddc:.2}"),
        ]);
    }
    table
}

/// The default processor sweep (paper: 4…128; DD's quadratic page traffic
/// makes 128 slow to *simulate*, so the default stops at 64 — pass more to
/// [`run`] if you have the time).
pub(crate) fn default_procs() -> Vec<usize> {
    vec![2, 4, 8, 16, 32, 64]
}
