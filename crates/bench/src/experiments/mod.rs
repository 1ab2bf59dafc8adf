//! One module per table/figure of the paper. Each `run*` function
//! executes the scaled experiment (some also write a `BENCH_*.json`) and
//! returns the paper-shaped table, which [`emit`] prints and writes as a
//! CSV under `experiments/`.
//!
//! | Function | Reproduces | Paper setup | Ours (1:100 unless noted) |
//! |---|---|---|---|
//! | [`table2::run`] | Table II | P=64, m=50K, per-pass HD grids | P=64, m scaled |
//! | [`fig10::run`] | Figure 10 | scaleup, 50K tx/proc, 0.1% minsup, P≤128 | 400 tx/proc, 1% minsup, P≤64 |
//! | [`fig11::run`] | Figure 11 | leaf visits/tx, DD vs IDD, P≤32 | same, scaled N |
//! | [`fig12::run`] | Figure 12 | SP2 P=16, N=100K, minsup 0.1→0.025% | SP2 profile, N=2K, support sweep |
//! | [`fig13::run`] | Figure 13 | speedup P=4..64, N=1.3M, M=0.7M, pass 3 | N=13K, pass 3 |
//! | [`fig14::run`] | Figure 14 | runtime vs N=1.3M..26.1M, P=64 | N=1.3K..26K |
//! | [`fig15::run`] | Figure 15 | runtime vs M=0.7M..8M, P=64 | support sweep grows M |
//! | [`model::run`] | Eq 1–2 | — (analysis) | closed form vs MC vs measured |
//! | [`imbalance::run`] | §III-C quote | 4p: 1.3%→5.4%; 8p: 2.3%→9.4% | same metrics |
//! | [`hpa_comm::run`] | §III-E claim | HPA comm volume vs IDD, by k | extension: HPA implemented |
//! | [`structures::run`] | — (extension) | hash tree vs trie behind the counter seam | CD+IDD, P ∈ {1,16,64} |
//! | [`hetero::run`] | — (extension) | static vs adaptive placement on skewed clusters | CD+IDD, P=16 |

pub(crate) mod ablation;
pub(crate) mod breakdown;
pub(crate) mod faults;
pub(crate) mod fig10;
pub(crate) mod fig11;
pub(crate) mod fig12;
pub(crate) mod fig13;
pub(crate) mod fig14;
pub(crate) mod fig15;
pub(crate) mod hetero;
pub(crate) mod hpa_comm;
pub(crate) mod imbalance;
pub(crate) mod model;
pub(crate) mod pdm_prune;
pub(crate) mod structures;
pub(crate) mod table2;

use crate::report::Table;

/// Prints a finished table and writes its CSV, reporting the path.
pub(crate) fn emit(table: &Table, csv_name: &str) {
    table.print();
    match table.write_csv(csv_name) {
        Ok(path) => println!("(csv: {})", path.display()),
        Err(e) => eprintln!("(csv write failed: {e})"),
    }
}
