//! Figure 14 — transaction scaling: runtime vs N with M and P fixed
//! (paper: N = 1.3M → 26.1M, M = 0.7M, P = 64, HD grid 8×8).
//!
//! Expected shape: CD and HD grow linearly in N (perfectly scalable in
//! transactions); IDD grows faster — its O(N) ring data movement and load
//! imbalance compound (the paper attributes most of the gap to
//! imbalance).

use crate::report::{ms, pct, Table};
use crate::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Processors (paper: 64).
const PROCS: usize = 64;
/// Minimum support fraction: held constant so that M stays roughly fixed
/// while N grows (the paper pins M = 0.7M).
const MIN_SUPPORT: f64 = 0.015;
/// Only pass 3 is timed, as in Figure 13 (a fixed-M comparison needs a
/// fixed pass).
const PASS: usize = 3;
/// HD group threshold.
const HD_THRESHOLD: usize = 1100;

/// Runs the N sweep.
pub(crate) fn run(transaction_counts: &[usize]) -> Table {
    let mut table = Table::new(
        "Figure 14 — response time (ms) vs N (P=64, M fixed via constant support)",
        &["N", "CD", "IDD", "HD", "|C3|", "IDD imbalance"],
    );
    for &n in transaction_counts {
        let dataset = workloads::t15_i6(n, 1414);
        let params = ParallelParams::with_min_support(MIN_SUPPORT)
            .page_size(100)
            .max_k(PASS);
        let miner = ParallelMiner::new(PROCS);
        let cd = miner.mine(Algorithm::Cd, &dataset, &params);
        let idd = miner.mine(Algorithm::Idd, &dataset, &params);
        let hd = miner.mine(
            Algorithm::Hd {
                group_threshold: HD_THRESHOLD,
            },
            &dataset,
            &params,
        );
        table.row(&[
            &n,
            &ms(cd.response_time),
            &ms(idd.response_time),
            &ms(hd.response_time),
            &cd.passes.get(PASS - 1).map_or(0, |p| p.candidates),
            &pct(idd.compute_imbalance()),
        ]);
    }
    table
}

/// Default sweep (paper: 1.3M → 26.1M, 1:1000 here to keep the largest
/// DD-free run quick).
pub(crate) fn default_transactions() -> Vec<usize> {
    vec![1300, 2600, 5200, 13_000, 26_000]
}
