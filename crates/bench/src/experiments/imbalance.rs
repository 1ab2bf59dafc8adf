//! Section III-C's load-balance measurement: how candidate-count
//! imbalance from the bin-packing partitioner translates into
//! computation-time imbalance in IDD (paper quotes: 1.3% candidates →
//! 5.4% time at P=4; 2.3% → 9.4% at P=8 — the work imbalance is larger
//! because the packing balances candidate *counts*, not the
//! transaction-dependent traversal work).

use crate::report::{pct, Table};
use crate::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Transactions per processor.
const PER_PROC: usize = 400;
/// Minimum support fraction.
const MIN_SUPPORT: f64 = 0.01;

/// Runs IDD at each processor count and reports both imbalance metrics,
/// with and without the two-level split refinement.
pub(crate) fn run(procs_list: &[usize]) -> Table {
    let mut table = Table::new(
        "Section III-C — IDD imbalance: candidates vs computation time",
        &[
            "P",
            "cand imbalance",
            "time imbalance",
            "cand (2-level)",
            "time (2-level)",
        ],
    );
    for &procs in procs_list {
        let dataset = workloads::scaleup(procs, PER_PROC, 33);
        let base = ParallelParams::with_min_support(MIN_SUPPORT).page_size(100);
        let miner = ParallelMiner::new(procs);

        let single = miner.mine(Algorithm::Idd, &dataset, &base);
        let cand_single = worst_candidate_imbalance(&single);
        let split = miner.mine(
            Algorithm::Idd,
            &dataset,
            &base.split_threshold(splitting(procs)),
        );
        let cand_split = worst_candidate_imbalance(&split);

        table.row(&[
            &procs,
            &pct(cand_single),
            &pct(single.compute_imbalance()),
            &pct(cand_split),
            &pct(split.compute_imbalance()),
        ]);
    }
    table
}

/// Split threshold for the two-level refinement: a first item holding more
/// than ~2× a fair share of an average pass gets split by second item.
fn splitting(procs: usize) -> u64 {
    (400 / procs.max(1)).max(4) as u64
}

/// Candidate imbalance of the *dominant* pass (largest `|C_k|`) — tail
/// passes with a handful of candidates are trivially imbalanced and
/// irrelevant to runtime.
fn worst_candidate_imbalance(run: &armine_parallel::ParallelRun) -> f64 {
    run.passes
        .iter()
        .max_by_key(|p| p.candidates)
        .map_or(0.0, |p| p.candidate_imbalance)
}

/// Default sweep (paper quotes P = 4 and 8).
pub(crate) fn default_procs() -> Vec<usize> {
    vec![4, 8, 16]
}
