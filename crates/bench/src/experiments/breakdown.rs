//! The Section V overhead decomposition behind Figure 13's discussion:
//!
//! * CD — "For 4 processors, the time taken for hash tree construction is
//!   only 3.1% of the total runtime and the time for global reduction is
//!   only 1.6% …. However, for 64 processors, these overheads are 24.8%
//!   and 31.0%, respectively."
//! * IDD — "for 4 processors the load imbalance overhead is only 6.3%,
//!   whereas for 64 processors this overhead is 49.6%. The cost of data
//!   movement is 1.0% for 4 processors and 6.4% for 64 processors."
//!
//! We recompute the same fractions from the simulator's accounting: tree
//! construction from the candidate counts × machine constants, reduction
//! and data movement from the residual communication time, and load
//! imbalance as the fraction of the makespan the average rank spends
//! beyond the mean busy time (`(max − avg busy) / response`).

use crate::report::{pct, Table};
use crate::workloads;
use armine_mpsim::MachineProfile;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams, ParallelRun};

/// Transactions (Figure 13's fixed problem, scaled).
const NUM_TRANSACTIONS: usize = 13_000;
/// Minimum support (matches `exp fig13`).
const MIN_SUPPORT: f64 = 0.015;
/// Passes measured.
const MAX_K: usize = 3;

fn tree_build_seconds(run: &ParallelRun, machine: &MachineProfile) -> f64 {
    // Every processor regenerates all candidates and (for CD) inserts all
    // of them: per pass |C_k| · (t_gen + t_insert).
    run.passes
        .iter()
        .filter(|p| p.k >= 2)
        .map(|p| p.candidates as f64 * (machine.t_gen + machine.t_insert))
        .sum()
}

/// Runs the decomposition at each processor count.
pub(crate) fn run(procs_list: &[usize]) -> Table {
    let dataset = workloads::t15_i6(NUM_TRANSACTIONS, 1313);
    let params = ParallelParams::with_min_support(MIN_SUPPORT)
        .page_size(100)
        .max_k(MAX_K);
    let machine = MachineProfile::cray_t3e();
    let mut table = Table::new(
        "Section V — overhead fractions of the total response time",
        &[
            "P",
            "CD: tree build",
            "CD: reduction",
            "IDD: imbalance",
            "IDD: data movement",
        ],
    );
    for &procs in procs_list {
        let miner = ParallelMiner::new(procs);
        let cd = miner.mine(Algorithm::Cd, &dataset, &params);
        let idd = miner.mine(Algorithm::Idd, &dataset, &params);

        let cd_build = tree_build_seconds(&cd, &machine) / cd.response_time;
        // CD's only communication is the count reduction (plus the tiny
        // pass-1 exchange): average residual comm time over ranks.
        let cd_comm: f64 = cd.ranks.iter().map(|r| r.comm_time()).sum::<f64>()
            / cd.ranks.len() as f64
            / cd.response_time;
        // IDD imbalance: how much of the makespan the average rank is NOT
        // doing useful work because the slowest rank holds everyone up.
        let avg_busy: f64 = idd.ranks.iter().map(|r| r.busy).sum::<f64>() / idd.ranks.len() as f64;
        let max_busy = idd.ranks.iter().map(|r| r.busy).fold(0.0f64, f64::max);
        let idd_imbalance = (max_busy - avg_busy) / idd.response_time;
        let idd_move: f64 = idd.ranks.iter().map(|r| r.comm_time()).sum::<f64>()
            / idd.ranks.len() as f64
            / idd.response_time;

        table.row(&[
            &procs,
            &pct(cd_build),
            &pct(cd_comm),
            &pct(idd_imbalance),
            &pct(idd_move),
        ]);
    }
    table
}

/// Default sweep (the paper quotes P = 4 and 64).
pub(crate) fn default_procs() -> Vec<usize> {
    vec![4, 16, 64]
}
