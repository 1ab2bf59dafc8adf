//! Section III-E — IDD vs HPA: communication volume per pass.
//!
//! HPA ships, for each transaction, its `(|t| choose k)` potential
//! candidates to their hash owners; DD/IDD ship the transaction itself
//! (once around the ring). The paper's claim: "for values of `k` greater
//! than 2, HPA can have much larger communication volume than that for
//! DD and IDD. For small values of `k` (e.g., `k = 2`), it is possible
//! for HPA to incur smaller communication overhead than IDD." This
//! experiment measures exactly that, pass by pass, plus the effect of
//! ELD duplication.

use crate::report::{ms, ratio, Table};
use crate::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Processors.
const PROCS: usize = 8;
/// Transactions.
const NUM_TRANSACTIONS: usize = 2000;
/// Minimum support fraction.
const MIN_SUPPORT: f64 = 0.015;

/// Runs IDD, HPA, and HPA-ELD up to pass `max_k` and reports per-run
/// bytes and times. (Per-pass byte split is approximated by rerunning
/// with increasing `max_k`, since traffic counters are cumulative.)
pub(crate) fn run() -> Table {
    let dataset = workloads::t15_i6(NUM_TRANSACTIONS, 3030);
    let miner = ParallelMiner::new(PROCS);
    let mut table = Table::new(
        "Section III-E — communication bytes by pass horizon: IDD vs HPA",
        &[
            "max k",
            "IDD bytes",
            "HPA bytes",
            "HPA-ELD bytes",
            "HPA/IDD",
            "IDD ms",
            "HPA ms",
        ],
    );
    for max_k in [2usize, 3, 4] {
        let params = ParallelParams::with_min_support(MIN_SUPPORT)
            .page_size(100)
            .max_k(max_k);
        let idd = miner.mine(Algorithm::Idd, &dataset, &params);
        let hpa = miner.mine(Algorithm::Hpa { eld_permille: 0 }, &dataset, &params);
        let eld = miner.mine(Algorithm::Hpa { eld_permille: 300 }, &dataset, &params);
        table.row(&[
            &max_k,
            &idd.total_bytes(),
            &hpa.total_bytes(),
            &eld.total_bytes(),
            &ratio(hpa.total_bytes() as f64 / idd.total_bytes() as f64),
            &ms(idd.response_time),
            &ms(hpa.response_time),
        ]);
    }
    table
}
