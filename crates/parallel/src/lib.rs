#![warn(missing_docs)]

//! # armine-parallel
//!
//! Nine parallel formulations of Apriori: the four the paper studies, the
//! intermediate ablation it uses to decompose IDD's gains, its
//! single-source deployment, and the three related algorithms of Section
//! III-E:
//!
//! | Algorithm | Candidate placement | Data movement | Section |
//! |-----------|--------------------|---------------|---------|
//! | [`Algorithm::Cd`] (Count Distribution) | full replica on every processor | none (counts reduced) | III-A |
//! | [`Algorithm::Dd`] (Data Distribution)  | round-robin partition | naive page all-to-all | III-B |
//! | [`Algorithm::DdComm`] (DD + comm)      | round-robin partition | IDD's ring pipeline | V, Fig 10 |
//! | [`Algorithm::Idd`] (Intelligent DD)    | bin-packed by first item + bitmap filter | ring pipeline | III-C |
//! | [`Algorithm::Hd`] (Hybrid)             | bin-packed within G-row grid columns | ring within columns, reduce along rows | III-D |
//! | [`Algorithm::IddSingleSource`]         | as IDD | chain pipeline from rank 0 (the ring once it dies) | VI (conclusion) |
//! | [`Algorithm::Npa`]                     | full replica | counts funnelled to a coordinator | III-E (related) |
//! | [`Algorithm::Hpa`] (hash partitioned)  | stable-hash partition | per-transaction k-subsets to owners | III-E (related) |
//! | [`Algorithm::Pdm`] (parallel DHP)      | full replica, bucket-pruned | counts + bucket tables reduced | III-E (related) |
//!
//! All nine run on [`armine_mpsim`]'s virtual-time runtime: results are
//! exact (tested identical to serial Apriori), response times come from the
//! calibrated cost model. All but HPA, which moves k-subsets rather than
//! pages, are one pass driver — HD's partitioned pass, which CD, NPA and
//! PDM run at grid `(1, P)` and DD, DD+comm, IDD and IDD-1src at `(P, 1)`
//! — and differ only in the candidate plan, the grid, the movement, the
//! reduction and the memory cap they give it; PDM first prunes the
//! candidates (DESIGN.md §5.4).
//!
//! Runs can also be subjected to deterministic fault injection
//! ([`armine_mpsim::FaultPlan`]): [`ParallelMiner::mine_with_faults`]
//! tolerates message loss, stragglers, and rank crashes for all nine
//! formulations. The replicated frequent-itemset lattice
//! acts as the pass-boundary checkpoint — survivors adopt a dead rank's
//! transaction partitions and candidate responsibility, re-execute only
//! the interrupted pass, and mine a lattice bit-identical to the
//! fault-free run ([`FaultRunError`] reports the unrecoverable cases).
//!
//! ```
//! use armine_datagen::QuestParams;
//! use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};
//!
//! let data = QuestParams::paper_t15_i6()
//!     .num_transactions(400).num_items(100).seed(7).generate();
//! let miner = ParallelMiner::new(4);
//! let params = ParallelParams::with_min_support(0.02);
//! let run = miner.mine(Algorithm::Hd { group_threshold: 500 }, &data, &params);
//! assert!(!run.frequent.is_empty());
//! println!("HD response time: {:.3} ms", run.response_time * 1e3);
//! ```

mod common;
mod config;
mod hd;
mod hpa;
mod idd;
mod metrics;
mod miner;
mod npa;
mod pdm;
mod recovery;
mod registry;

pub use config::{ParallelParams, PlacementPolicy};
pub use hd::choose_grid;
pub use metrics::{ParallelPassMetrics, ParallelRun};
pub use miner::{Algorithm, FaultRunError, ParallelMiner};
