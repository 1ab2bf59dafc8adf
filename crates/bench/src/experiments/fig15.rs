//! Figure 15 — candidate scaling: runtime vs M with N and P fixed
//! (paper: M = 0.7M → 8M via lower support, N = 1.3M, P = 64; T3E memory
//! held 0.7M candidates, so CD partitions beyond that).
//!
//! Expected shape: CD grows ~O(M) (replicated tree build + partitioned
//! multi-scan); IDD starts worse (imbalance at small M/P) but grows only
//! ~O(M/P) and crosses below CD; HD tracks the minimum and becomes
//! exactly IDD once `G = P` (paper: M ≥ 3.3M → 64×1).

use crate::report::{ms, Table};
use crate::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Processors (paper: 64).
const PROCS: usize = 64;
/// Transactions (paper: 1.3M).
const NUM_TRANSACTIONS: usize = 2600;
/// Per-processor capacity: CD partitions its tree beyond this (paper:
/// 0.7M).
const MEMORY_CAPACITY: usize = 25_000;
/// HD group threshold (scaled from the paper's regime).
const HD_THRESHOLD: usize = 1200;

/// Runs the support sweep; lower support grows M.
pub(crate) fn run(supports: &[f64]) -> Table {
    let mut table = Table::new(
        "Figure 15 — response time (ms) vs M (P=64, N fixed)",
        &[
            "minsup",
            "M(total)",
            "CD",
            "IDD",
            "HD",
            "HD grid(k=3)",
            "CD scans",
        ],
    );
    let dataset = workloads::t15_i6_items(NUM_TRANSACTIONS, 500, 1515);
    for &support in supports {
        let params = ParallelParams::with_min_support(support)
            .page_size(100)
            .memory_capacity(MEMORY_CAPACITY)
            .max_k(4);
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
        let m: usize = cd.passes.iter().map(|p| p.candidates).sum();
        let grid = hd.passes.get(2).map_or((0, 0), |p| p.grid);
        table.row(&[
            &format!("{:.2}%", support * 100.0),
            &m,
            &ms(cd.response_time),
            &ms(idd.response_time),
            &ms(hd.response_time),
            &format!("{}x{}", grid.0, grid.1),
            &cd.total_db_scans(),
        ]);
    }
    table
}

/// Default sweep, highest support (smallest M) first.
pub(crate) fn default_supports() -> Vec<f64> {
    vec![0.02, 0.015, 0.01, 0.0075, 0.005, 0.004]
}
