//! PDM vs CD (related work, §III-E): how much of CD's pass-2 work does
//! DHP-style hash filtering remove, and what does the bucket reduction
//! cost?
//!
//! The paper calls PDM "similar in nature to the CD algorithm" — same
//! replicated trees and count reduction — so the interesting quantities
//! are the candidate-pruning ratio (bucket table quality vs size) and the
//! net response-time effect.

use crate::report::{ms, Table};
use crate::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Processors.
const PROCS: usize = 8;
/// Transactions.
const NUM_TRANSACTIONS: usize = 2000;
/// Minimum support fraction.
const MIN_SUPPORT: f64 = 0.01;

/// Sweeps the bucket-table size.
pub(crate) fn run() -> Table {
    let dataset = workloads::t15_i6(NUM_TRANSACTIONS, 5050);
    let params = ParallelParams::with_min_support(MIN_SUPPORT)
        .page_size(100)
        .max_k(3);
    let miner = ParallelMiner::new(PROCS);
    let cd = miner.mine(Algorithm::Cd, &dataset, &params);
    let c2 = cd.passes[1].counted_candidates;
    let mut table = Table::new(
        "PDM vs CD — pass-2 candidate pruning vs bucket-table size (P=8)",
        &["buckets", "|C2| counted", "pruned", "time ms", "CD time ms"],
    );
    for buckets in [256usize, 1 << 12, 1 << 16, 1 << 20] {
        let pdm = miner.mine(
            Algorithm::Pdm {
                buckets,
                filter_passes: 1,
            },
            &dataset,
            &params,
        );
        let counted = pdm.passes[1].counted_candidates;
        table.row(&[
            &buckets,
            &counted,
            &format!("{:.1}%", 100.0 * (c2 - counted) as f64 / c2 as f64),
            &ms(pdm.response_time),
            &ms(cd.response_time),
        ]);
    }
    table
}
