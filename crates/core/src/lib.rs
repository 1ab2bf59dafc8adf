#![warn(missing_docs)]

//! # armine-core
//!
//! Serial association-rule mining building blocks, following Agrawal &
//! Srikant's Apriori algorithm (VLDB '94) as presented in Han, Karypis &
//! Kumar, *Scalable Parallel Data Mining for Association Rules* (SIGMOD '97
//! / TKDE '99). This crate provides everything the paper's **serial**
//! pipeline needs, plus the shared pieces its parallel formulations build on:
//!
//! - [`Item`], [`ItemSet`], [`Transaction`], [`Dataset`] — the transaction
//!   data model (Section II of the paper).
//! - [`hashtree::HashTree`] — the candidate hash tree with the recursive
//!   `subset` operation, leaf splitting, per-transaction distinct-leaf-visit
//!   accounting, and the first-item bitmap root filter used by IDD
//!   (Sections II and III-C).
//! - [`counter`] — the pluggable candidate-counting seam: the
//!   [`CandidateCounter`](counter::CandidateCounter) trait, the
//!   structure-agnostic work ledger, and the backend knob selecting the
//!   hash tree, an item-indexed candidate trie, or an Eclat-style
//!   vertical (tid-bitmap) counter.
//! - [`apriori`] — `apriori_gen` (join + prune) and the multi-pass mining
//!   loop.
//! - [`rules`] — rule generation from frequent itemsets (the second step).
//! - [`model`] — the analytical cost model of Section IV: the V(i,j)
//!   expected distinct-leaf formula (Eq. 1–2) and the per-algorithm runtime
//!   equations (Eq. 3–8).
//! - [`binpack`] — the bin-packing first-item candidate partitioner IDD uses
//!   for load balance, with the two-level (second-item) refinement.
//!
//! ## Quick example
//!
//! ```
//! use armine_core::{Dataset, Transaction, apriori::{Apriori, AprioriParams}};
//!
//! // The supermarket transactions of Table I in the paper.
//! let dataset = Dataset::from_named_transactions(&[
//!     &["Bread", "Coke", "Milk"],
//!     &["Beer", "Bread"],
//!     &["Beer", "Coke", "Diaper", "Milk"],
//!     &["Beer", "Bread", "Diaper", "Milk"],
//!     &["Coke", "Diaper", "Milk"],
//! ]);
//! let result = Apriori::new(AprioriParams::with_min_support_count(3)).mine(dataset.transactions());
//! // {Diaper, Milk} has support count 3, so it is frequent.
//! let dm = dataset.itemset(&["Diaper", "Milk"]).unwrap();
//! assert_eq!(result.support(&dm), Some(3));
//! ```

pub mod apriori;
pub mod binpack;
mod bitmap;
pub mod candidates;
pub mod counter;
pub mod dataset;
pub mod hashtree;
pub mod io;
pub mod item;
pub mod itemset;
pub mod model;
mod pairs;
pub mod rules;
pub mod stable_hash;
pub mod stats;
pub mod summaries;
pub mod transaction;
mod trie;
mod vertical;

pub use dataset::Dataset;
pub use item::Item;
pub use itemset::ItemSet;
pub use transaction::Transaction;

#[cfg(test)]
mod tidlist;
