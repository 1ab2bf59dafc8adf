#![warn(missing_docs)]

//! # armine-datagen
//!
//! A from-scratch implementation of the IBM Quest synthetic transaction
//! generator (Agrawal & Srikant, *Fast Algorithms for Mining Association
//! Rules*, VLDB '94, Section 4) — the tool the paper's experiments use
//! (reference \[17\]) with average transaction length `|T| = 15` and average
//! maximal-pattern length `|I| = 6`.
//!
//! The generator models retail-like co-occurrence:
//!
//! 1. A pool of `|L|` *maximal potentially large itemsets* ("patterns") is
//!    built. Pattern sizes are Poisson with mean `|I|`; successive patterns
//!    share an exponentially-distributed fraction of items with their
//!    predecessor (correlated patterns); each pattern gets an
//!    exponentially-distributed weight (normalized to sum 1) and a
//!    *corruption level* drawn from a clamped normal.
//! 2. Each transaction draws its length from a Poisson with mean `|T|`,
//!    then packs weighted, corrupted patterns until full; an oversized last
//!    pattern is added anyway half the time and deferred to the next
//!    transaction otherwise.
//!
//! ```
//! use armine_datagen::QuestParams;
//!
//! let dataset = QuestParams::paper_t15_i6()
//!     .num_transactions(1000)
//!     .num_items(200)
//!     .seed(42)
//!     .generate();
//! assert_eq!(dataset.len(), 1000);
//! let avg = dataset.avg_transaction_len();
//! assert!(avg > 10.0 && avg < 20.0, "|T| should hover near 15, got {avg}");
//! ```

mod dist;
mod generator;
mod patterns;

pub use generator::QuestParams;
