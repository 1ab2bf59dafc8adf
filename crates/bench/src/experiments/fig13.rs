//! Figure 13 — speedup: fixed problem, growing machine (paper: N = 1.3M,
//! M = 0.7M, P = 4…64, measuring the pass that computes size-3 frequent
//! itemsets — over 55% of total runtime).
//!
//! Expected shape: HD speeds up best; CD flattens (the serial tree build
//! and O(M) reduction grow from ~5% of the runtime at P=4 to over half at
//! P=64); IDD flattens harder (load imbalance and O(N) data movement).

use crate::report::Table;
use crate::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Transactions (paper: 1.3M).
const NUM_TRANSACTIONS: usize = 13_000;
/// Minimum support fraction, chosen so pass 3 carries a large candidate
/// set (the paper pinned M = 0.7M; the achieved M is printed).
const MIN_SUPPORT: f64 = 0.015;
/// The measured pass.
const PASS: usize = 3;
/// HD group threshold.
const HD_THRESHOLD: usize = 1100;

/// Runs the speedup sweep; speedups are normalized to the smallest P in
/// the list (the paper plots vs P=4).
pub(crate) fn run(procs_list: &[usize]) -> Table {
    assert!(!procs_list.is_empty());
    let dataset = workloads::t15_i6(NUM_TRANSACTIONS, 1313);
    let params = ParallelParams::with_min_support(MIN_SUPPORT)
        .page_size(100)
        .max_k(PASS);
    /// One measured row: (P, cd, idd, hd, |C3|, HD grid).
    type Row = (usize, f64, f64, f64, usize, (usize, usize));
    let mut rows: Vec<Row> = Vec::new();
    for &procs in procs_list {
        let miner = ParallelMiner::new(procs);
        let cd = miner.mine(Algorithm::Cd, &dataset, &params);
        let idd = miner.mine(Algorithm::Idd, &dataset, &params);
        let hd = miner.mine(
            Algorithm::Hd {
                group_threshold: HD_THRESHOLD,
            },
            &dataset,
            &params,
        );
        let m = cd.passes[PASS - 1].candidates;
        rows.push((
            procs,
            cd.pass_time(PASS),
            idd.pass_time(PASS),
            hd.pass_time(PASS),
            m,
            hd.passes[PASS - 1].grid,
        ));
    }
    let base_p = rows[0].0 as f64;
    let (b_cd, b_idd, b_hd) = (rows[0].1, rows[0].2, rows[0].3);
    let mut table = Table::new(
        "Figure 13 — speedup of pass 3 vs P (normalized to the smallest P)",
        &["P", "CD", "IDD", "HD", "|C3|", "HD grid"],
    );
    for (procs, cd, idd, hd, m, grid) in rows {
        table.row(&[
            &procs,
            &format!("{:.1}", base_p * b_cd / cd),
            &format!("{:.1}", base_p * b_idd / idd),
            &format!("{:.1}", base_p * b_hd / hd),
            &m,
            &format!("{}x{}", grid.0, grid.1),
        ]);
    }
    table
}

/// Default sweep (paper: 4…64).
pub(crate) fn default_procs() -> Vec<usize> {
    vec![4, 8, 16, 32, 64]
}
