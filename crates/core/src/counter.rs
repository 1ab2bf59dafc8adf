//! The pluggable candidate-counting seam.
//!
//! The paper's entire performance story (Eq. 1 and the CD/DD/IDD/HD
//! response-time curves) is driven by counting-structure *operation
//! counts*, not by any property unique to the hash tree. This module
//! turns the counting structure into a seam: [`CandidateCounter`] is the
//! object-safe contract every backend satisfies, [`CounterStats`] is the
//! structure-agnostic work ledger the virtual-time model charges from,
//! and [`CounterBackend`] is the config knob that selects a backend at
//! run time. Three production backends exist — the paper's
//! [`HashTree`] (the default, its fan-out
//! sized from the candidate count), the item-indexed
//! [`CandidateTrie`] of later Apriori
//! implementations (Borgelt's, Bodon's), and the Eclat-style
//! [`VerticalCounter`], which pivots
//! each batch into per-item tid bitmaps and counts by AND + popcount
//! instead of walking transaction subsets at all. At `k = 2` the latter two
//! share one direct pair table (one probe per item pair, the classic
//! Apriori pass-2 specialisation), which [`CounterBackend::build`] alone
//! knows about. Structure choice dominating
//! Apriori runtime is the point of Singh et al. (arXiv:1511.07017);
//! making it a measured experiment instead of an architectural fact is
//! the point of this seam.

use crate::hashtree::{HashTree, HashTreeParams, OwnershipFilter};
use crate::itemset::ItemSet;
use crate::pairs::PairCounter;
use crate::transaction::Transaction;
use crate::trie::CandidateTrie;
use crate::vertical::VerticalCounter;

/// Accumulated work counters of a candidate-counting structure.
///
/// These counters are the bridge between the real execution and the
/// analytical model of Section IV: `traversal_steps` accrues `t_travers`
/// units, `distinct_leaf_visits` accrues `t_check` units, and `inserts`
/// accrues tree-construction units. Figure 11 plots
/// `distinct_leaf_visits / transactions` directly. Each backend maps its
/// own traversal onto the same six counters (the hash tree's hash
/// descents and the trie's child descents both land in
/// `traversal_steps`), so the virtual-time charge is computed the same
/// way regardless of structure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CounterStats {
    /// Candidate insertions (construction work, the `O(M)` term).
    pub inserts: u64,
    /// Transactions processed through the subset walk.
    pub transactions: u64,
    /// Starting items accepted at the root (after ownership filtering) —
    /// the quantity IDD's filter reduces by roughly a factor of `P`.
    pub root_starts: u64,
    /// Descents into existing children (`t_travers` units; the model's
    /// `C` per transaction). Hash descents for the hash tree, sorted
    /// child-list matches for the trie.
    pub traversal_steps: u64,
    /// Distinct terminal nodes visited, counted once per
    /// (transaction, node) — the model's `V(i, j)`, `t_check` units.
    pub distinct_leaf_visits: u64,
    /// Individual candidate-vs-transaction comparisons performed at
    /// terminal nodes.
    pub candidate_checks: u64,
    /// `u64` words touched by bitmap AND/popcount intersections — the
    /// vertical backend's dominant work term (`t_word` units). Zero for
    /// the horizontal backends. Sparse-list intersections report element
    /// probes in the same unit.
    pub intersection_words: u64,
}

impl CounterStats {
    /// The ledger's field names, in declaration order — the metric-name
    /// suffixes the registry records under `armine.counting.<field>`.
    pub const FIELD_NAMES: [&'static str; 7] = [
        "inserts",
        "transactions",
        "root_starts",
        "traversal_steps",
        "distinct_leaf_visits",
        "candidate_checks",
        "intersection_words",
    ];

    /// Every field as a `(name, value)` pair, names matching
    /// [`FIELD_NAMES`](Self::FIELD_NAMES). The exhaustive destructure
    /// makes forgetting a newly added field a compile error, the same
    /// guarantee [`merged`](Self::merged) gives the aggregation path.
    pub fn named_fields(&self) -> [(&'static str, u64); 7] {
        let CounterStats {
            inserts,
            transactions,
            root_starts,
            traversal_steps,
            distinct_leaf_visits,
            candidate_checks,
            intersection_words,
        } = *self;
        [
            ("inserts", inserts),
            ("transactions", transactions),
            ("root_starts", root_starts),
            ("traversal_steps", traversal_steps),
            ("distinct_leaf_visits", distinct_leaf_visits),
            ("candidate_checks", candidate_checks),
            ("intersection_words", intersection_words),
        ]
    }

    /// Average distinct leaves visited per transaction — the y-axis of
    /// Figure 11.
    pub fn avg_leaf_visits_per_transaction(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.distinct_leaf_visits as f64 / self.transactions as f64
        }
    }

    /// Element-wise sum, used when aggregating per-pass or per-processor
    /// stats. Both operands are destructured exhaustively (no `..`), so a
    /// newly added ledger field cannot be silently dropped from the merge
    /// — forgetting it is a compile error, not a masked zero when ranks
    /// running different backends aggregate.
    pub fn merged(&self, other: &CounterStats) -> CounterStats {
        let CounterStats {
            inserts,
            transactions,
            root_starts,
            traversal_steps,
            distinct_leaf_visits,
            candidate_checks,
            intersection_words,
        } = *self;
        let CounterStats {
            inserts: o_inserts,
            transactions: o_transactions,
            root_starts: o_root_starts,
            traversal_steps: o_traversal_steps,
            distinct_leaf_visits: o_distinct_leaf_visits,
            candidate_checks: o_candidate_checks,
            intersection_words: o_intersection_words,
        } = *other;
        CounterStats {
            inserts: inserts + o_inserts,
            transactions: transactions + o_transactions,
            root_starts: root_starts + o_root_starts,
            traversal_steps: traversal_steps + o_traversal_steps,
            distinct_leaf_visits: distinct_leaf_visits + o_distinct_leaf_visits,
            candidate_checks: candidate_checks + o_candidate_checks,
            intersection_words: intersection_words + o_intersection_words,
        }
    }
}

/// The contract every candidate-counting structure satisfies.
///
/// A counter is built over one pass's size-`k` candidates (via
/// [`CounterBackend::build`]), counts a batch of transactions under an
/// [`OwnershipFilter`], and reports per-candidate counts plus a
/// [`CounterStats`] work ledger. The trait is object-safe: the parallel
/// formulations hold a `Box<dyn CandidateCounter>` chosen by the config
/// knob.
///
/// Two ordering guarantees every backend upholds (CD's count-vector
/// reduction and DD/IDD's `frequent` exchange depend on them):
///
/// 1. [`count_vector`](Self::count_vector) /
///    [`set_count_vector`](Self::set_count_vector) index candidates in
///    **insertion order** — identical across ranks because `apriori_gen`
///    is deterministic and sorted.
/// 2. [`frequent`](Self::frequent) returns survivors in insertion order.
pub trait CandidateCounter {
    /// The candidate size this counter was built for.
    fn k(&self) -> usize;

    /// Number of candidates stored.
    fn num_candidates(&self) -> usize;

    /// Whether the counter holds no candidates.
    fn is_empty(&self) -> bool {
        self.num_candidates() == 0
    }

    /// Counts every candidate contained in each transaction, honoring
    /// the ownership filter's root (and second-level) pruning.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter);

    /// The accumulated count for `set`, or `None` if never inserted.
    fn count_of(&self, set: &ItemSet) -> Option<u64>;

    /// Per-candidate counts in insertion order (what CD's global
    /// reduction sums).
    fn count_vector(&self) -> Vec<u64>;

    /// Overwrites the per-candidate counts (after a reduction).
    ///
    /// # Panics
    /// If the length differs from [`num_candidates`](Self::num_candidates).
    fn set_count_vector(&mut self, counts: &[u64]);

    /// Candidates with `count >= min_count`, insertion order.
    fn frequent(&self, min_count: u64) -> Vec<(ItemSet, u64)>;

    /// The work ledger accumulated since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    fn stats(&self) -> CounterStats;

    /// Zeroes the work ledger (counts are kept).
    fn reset_stats(&mut self);

    /// Logical bytes this counter's candidates occupy on the wire — what
    /// IDD charges when candidates move between processors.
    fn wire_size(&self) -> usize;
}

/// Which counting structure to build — the config knob threaded from the
/// CLI through `AprioriParams`/`ParallelParams` down to every pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum CounterBackend {
    /// The paper's candidate hash tree (Section II), the default. Its
    /// shape comes from the [`HashTreeParams`] given to
    /// [`build`](Self::build): by default the fan-out is sized from the
    /// candidate count, and a pinned `branching: 8, max_leaf: 16`
    /// reproduces the historical virtual-time goldens bit for bit.
    #[default]
    HashTree,
    /// The item-indexed prefix trie of later Apriori implementations.
    Trie,
    /// The Eclat-style vertical backend: per-item tid bitmaps intersected
    /// by wide-word AND + popcount, with a sorted-tid-list fallback for
    /// low-density items.
    Vertical,
}

impl CounterBackend {
    /// Every available backend, in display order.
    pub const ALL: [CounterBackend; 3] = [
        CounterBackend::HashTree,
        CounterBackend::Trie,
        CounterBackend::Vertical,
    ];

    /// Builds the selected structure over one pass's size-`k`
    /// candidates. `tree` shapes the hash tree and is ignored by the
    /// other backends.
    ///
    /// At `k = 2` the trie and the vertical backend count through the
    /// direct pair table of the `pairs` module (one probe per item pair)
    /// in place of their own structure, unless the candidates are so
    /// sparse over their item universe that the table would dwarf them.
    /// The hash tree is built at every `k`: it is the paper's model, and
    /// the virtual-time goldens are priced from its ledger.
    pub fn build(
        self,
        k: usize,
        tree: HashTreeParams,
        candidates: Vec<ItemSet>,
    ) -> Box<dyn CandidateCounter> {
        let candidates = if k == 2 && self != CounterBackend::HashTree {
            match PairCounter::build(candidates) {
                Ok(pairs) => return Box::new(pairs),
                Err(too_sparse) => too_sparse,
            }
        } else {
            candidates
        };
        match self {
            CounterBackend::HashTree => Box::new(HashTree::build(k, tree, candidates)),
            CounterBackend::Trie => Box::new(CandidateTrie::build(k, candidates)),
            CounterBackend::Vertical => Box::new(VerticalCounter::build(k, candidates)),
        }
    }

    /// Parses a backend name as accepted by the CLI's `--counter` flag.
    /// Matching is ASCII case-insensitive (`Trie`, `VERTICAL`, … all
    /// resolve).
    pub fn parse(name: &str) -> Option<CounterBackend> {
        CounterBackend::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// The canonical name (round-trips through [`parse`](Self::parse)).
    pub fn name(self) -> &'static str {
        match self {
            CounterBackend::HashTree => "hashtree",
            CounterBackend::Trie => "trie",
            CounterBackend::Vertical => "vertical",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    #[test]
    fn avg_leaf_visits_handles_zero_transactions() {
        assert_eq!(
            CounterStats::default().avg_leaf_visits_per_transaction(),
            0.0
        );
    }

    #[test]
    fn avg_leaf_visits_divides() {
        let s = CounterStats {
            transactions: 4,
            distinct_leaf_visits: 10,
            ..Default::default()
        };
        assert!((s.avg_leaf_visits_per_transaction() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merged_sums_fields() {
        let a = CounterStats {
            inserts: 1,
            transactions: 2,
            root_starts: 3,
            traversal_steps: 4,
            distinct_leaf_visits: 5,
            candidate_checks: 6,
            intersection_words: 7,
        };
        let b = a;
        let m = a.merged(&b);
        assert_eq!(m.inserts, 2);
        assert_eq!(m.transactions, 4);
        assert_eq!(m.root_starts, 6);
        assert_eq!(m.traversal_steps, 8);
        assert_eq!(m.distinct_leaf_visits, 10);
        assert_eq!(m.candidate_checks, 12);
        assert_eq!(m.intersection_words, 14);
    }

    /// Merging across ranks running different backends must not mask
    /// fields that are zero in one operand: every field of an
    /// all-nonzero ledger survives a merge with the default (all-zero)
    /// ledger unchanged, in both orders.
    #[test]
    fn merged_preserves_fields_zero_in_one_operand() {
        let vertical_rank = CounterStats {
            inserts: 11,
            transactions: 22,
            root_starts: 33,
            traversal_steps: 44,
            distinct_leaf_visits: 55,
            candidate_checks: 66,
            intersection_words: 77,
        };
        let horizontal_rank = CounterStats::default();
        assert_eq!(vertical_rank.merged(&horizontal_rank), vertical_rank);
        assert_eq!(horizontal_rank.merged(&vertical_rank), vertical_rank);
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in CounterBackend::ALL {
            assert_eq!(CounterBackend::parse(backend.name()), Some(backend));
            // Case-insensitive: uppercase and mixed-case resolve too.
            assert_eq!(
                CounterBackend::parse(&backend.name().to_ascii_uppercase()),
                Some(backend)
            );
        }
        assert_eq!(
            CounterBackend::parse("Vertical"),
            Some(CounterBackend::Vertical)
        );
        assert_eq!(CounterBackend::parse("btree"), None);
        assert_eq!(CounterBackend::default(), CounterBackend::HashTree);
        assert_eq!(CounterBackend::ALL.len(), 3);
    }

    #[test]
    fn all_backends_count_identically_through_the_trait() {
        let candidates = vec![
            ItemSet::from([1, 2]),
            ItemSet::from([1, 3]),
            ItemSet::from([2, 3]),
        ];
        let transactions = vec![
            Transaction::new(0, vec![Item(1), Item(2), Item(3)]),
            Transaction::new(1, vec![Item(1), Item(3)]),
            Transaction::new(2, vec![Item(2)]),
        ];
        let mut vectors = Vec::new();
        for backend in CounterBackend::ALL {
            let mut counter = backend.build(2, HashTreeParams::default(), candidates.clone());
            assert_eq!(counter.k(), 2);
            assert_eq!(counter.num_candidates(), 3);
            assert!(!counter.is_empty());
            counter.count_all(&transactions, &OwnershipFilter::all());
            assert_eq!(counter.stats().transactions, 3);
            assert_eq!(counter.count_of(&ItemSet::from([1, 3])), Some(2));
            assert_eq!(counter.frequent(2), vec![(ItemSet::from([1, 3]), 2)]);
            counter.reset_stats();
            assert_eq!(counter.stats(), CounterStats::default());
            vectors.push(counter.count_vector());
        }
        for (i, v) in vectors.iter().enumerate() {
            assert_eq!(
                v,
                &vec![1, 2, 1],
                "backend {} diverged",
                CounterBackend::ALL[i].name()
            );
        }
    }
}
