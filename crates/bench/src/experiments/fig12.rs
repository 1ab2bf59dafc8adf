//! Figure 12 — the memory wall on the IBM SP2: response time as the
//! candidate count grows (paper: 16 processors, 100K transactions,
//! minimum support 0.1% → 0.025%, disk-resident database).
//!
//! CD must partition its replicated hash tree once `|C_k|` exceeds one
//! node's memory and rescan the database per partition — extra tree
//! builds, extra I/O, extra reductions. IDD and HD spread the candidates
//! over the aggregate memory and keep a single scan per pass, so the gap
//! widens with M (paper: CD penalty ≈8% at 1M candidates, 25% at 11M).

use crate::report::{ms, ratio, Table};
use crate::workloads;
use armine_mpsim::MachineProfile;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Processors (paper: 16).
const PROCS: usize = 16;
/// Transactions (paper: 100K, 1:50 here).
const NUM_TRANSACTIONS: usize = 2000;
/// Per-processor candidate capacity before CD partitions its tree.
const MEMORY_CAPACITY: usize = 10_000;
/// HD group threshold.
const HD_THRESHOLD: usize = MEMORY_CAPACITY;

/// Runs the support sweep (lower support ⇒ more candidates).
pub(crate) fn run(supports: &[f64]) -> Table {
    let mut table = Table::new(
        "Figure 12 — IBM SP2, P=16: response time (ms) vs total candidates",
        &[
            "minsup",
            "candidates",
            "CD",
            "IDD",
            "HD",
            "CD scans",
            "CD/HD",
        ],
    );
    let dataset = workloads::t15_i6_items(NUM_TRANSACTIONS, 400, 1212);
    for &support in supports {
        let params = ParallelParams::with_min_support(support)
            .page_size(100)
            .memory_capacity(MEMORY_CAPACITY);
        let miner = ParallelMiner::new(PROCS).machine(MachineProfile::ibm_sp2());
        let cd = miner.mine(Algorithm::Cd, &dataset, &params);
        let idd = miner.mine(Algorithm::Idd, &dataset, &params);
        let hd = miner.mine(
            Algorithm::Hd {
                group_threshold: HD_THRESHOLD,
            },
            &dataset,
            &params,
        );
        let candidates: usize = cd.passes.iter().map(|p| p.candidates).sum();
        table.row(&[
            &format!("{:.3}%", support * 100.0),
            &candidates,
            &ms(cd.response_time),
            &ms(idd.response_time),
            &ms(hd.response_time),
            &cd.total_db_scans(),
            &ratio(cd.response_time / hd.response_time),
        ]);
    }
    table
}

/// Default support sweep, highest first (paper: 0.1% → 0.025%).
pub(crate) fn default_supports() -> Vec<f64> {
    vec![0.02, 0.015, 0.01, 0.0075, 0.005]
}
