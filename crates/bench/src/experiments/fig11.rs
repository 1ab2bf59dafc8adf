//! Figure 11 — the redundant-work mechanism, observed directly: average
//! number of **distinct leaf nodes visited per transaction** for DD vs
//! IDD as P grows (paper: 50K transactions/processor, 0.2% minimum
//! support).
//!
//! DD's per-transaction visits fall slowly with P (the analysis's
//! `V(C, L/P)`); IDD's fall like `1/P` (`V(C/P, L/P)`). The table also
//! prints the closed-form predictions of Equation 1 next to the measured
//! counters.

use crate::report::Table;
use crate::workloads;
use armine_core::model::expected_distinct_leaves;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Transactions per processor.
const PER_PROC: usize = 400;
/// Minimum support fraction (paper: 0.2%).
const MIN_SUPPORT: f64 = 0.015;
/// The pass whose counters are reported (pass 3 dominates runtime in the
/// paper's runs).
const PASS: usize = 3;

/// Runs the sweep over `procs_list`.
pub(crate) fn run(procs_list: &[usize]) -> Table {
    let mut table = Table::new(
        "Figure 11 — avg distinct leaf nodes visited per transaction (pass 3)",
        &["P", "DD", "IDD", "DD_model", "IDD_model", "ratio DD/IDD"],
    );
    for &procs in procs_list {
        let dataset = workloads::scaleup(procs, PER_PROC, 1111);
        let params = ParallelParams::with_min_support(MIN_SUPPORT)
            .page_size(100)
            .max_k(PASS);
        let miner = ParallelMiner::new(procs);
        let dd = miner.mine(Algorithm::Dd, &dataset, &params);
        let idd = miner.mine(Algorithm::Idd, &dataset, &params);
        let dd_pass = &dd.passes[PASS - 1];
        let idd_pass = &idd.passes[PASS - 1];
        let dd_v = dd_pass.avg_leaf_visits_per_transaction();
        let idd_v = idd_pass.avg_leaf_visits_per_transaction();

        // Closed-form prediction: C = avg potential candidates per
        // transaction, L = leaves of the full tree (M/S with the serial
        // tree's occupancy; approximate S from the measured occupancy).
        let avg_len = dataset.avg_transaction_len();
        let c = armine_core::transaction::binomial(avg_len.round() as u64, PASS as u64) as f64;
        let m = dd_pass.candidates as f64;
        let s = 8.0; // typical occupancy at the default tree shape
        let l = m / s;
        let p = procs as f64;
        let dd_pred = expected_distinct_leaves(c, l / p);
        let idd_pred = expected_distinct_leaves(c / p, l / p);

        table.row(&[
            &procs,
            &format!("{dd_v:.2}"),
            &format!("{idd_v:.2}"),
            &format!("{dd_pred:.2}"),
            &format!("{idd_pred:.2}"),
            &format!("{:.2}", dd_v / idd_v.max(1e-9)),
        ]);
    }
    table
}

/// Default sweep (paper: up to 32).
pub(crate) fn default_procs() -> Vec<usize> {
    vec![2, 4, 8, 16, 32]
}
