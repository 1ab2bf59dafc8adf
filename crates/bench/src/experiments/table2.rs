//! Table II — HD's dynamic processor-grid configuration per pass
//! (paper: 64 processors, m = 50K; configurations 8×8, 64×1, 4×16, 2×32,
//! 2×32, 1×64 as the candidate count rises then falls across passes).

use crate::report::Table;
use crate::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Processors (paper: 64).
const PROCS: usize = 64;
/// Group threshold `m` (paper: 50K, scaled 1:100).
const GROUP_THRESHOLD: usize = 500;
/// Transactions.
const NUM_TRANSACTIONS: usize = 6400;
/// Minimum support fraction — low enough to produce the rising-then-
/// falling candidate profile of a long run.
const MIN_SUPPORT: f64 = 0.008;

/// Runs HD once and reports the chosen grid per pass.
pub(crate) fn run() -> Table {
    let dataset = workloads::t15_i6(NUM_TRANSACTIONS, 22);
    let params = ParallelParams::with_min_support(MIN_SUPPORT).page_size(100);
    let run = ParallelMiner::new(PROCS).mine(
        Algorithm::Hd {
            group_threshold: GROUP_THRESHOLD,
        },
        &dataset,
        &params,
    );
    let mut table = Table::new(
        &format!(
            "Table II — HD grid per pass (P={PROCS}, m={GROUP_THRESHOLD}); G×(P/G): G=P is IDD, G=1 is CD"
        ),
        &["pass", "candidates", "configuration", "frequent"],
    );
    for pass in &run.passes {
        table.row(&[
            &pass.k,
            &pass.candidates,
            &format!("{}x{}", pass.grid.0, pass.grid.1),
            &pass.frequent,
        ]);
    }
    table
}
