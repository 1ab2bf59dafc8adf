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
//! trie of later Apriori
//! implementations (Borgelt's, Bodon's; the `trie` module), and the
//! Eclat-style vertical counter (the `vertical` module), which pivots
//! each batch into per-item tid bitmaps and counts by AND + popcount
//! instead of walking transaction subsets at all. At `k = 2` all three
//! count through one direct pair table (one probe per item pair, the
//! classic Apriori pass-2 specialisation), which only [`CounterBackend`]
//! knows about: the latter two in place of their own structure, the hash
//! tree under its own shape, which each transaction still walks for the
//! ledger the model prices. Structure choice dominating
//! Apriori runtime is the point of Singh et al. (arXiv:1511.07017);
//! making it a measured experiment instead of an architectural fact is
//! the point of this seam.
//!
//! The structures differ only in how a transaction *finds* a candidate.
//! What a candidate and its count *are* is the same for all of them and
//! lives here, once, in [`CandidateTable`]: the candidate items in one
//! arena strided by `k`, the counts and the work ledger, all in row order.
//! Its one input contract is the one [`Candidates`] guarantees by
//! construction: strictly ascending, distinct `k`-item rows, checked where
//! rows enter a table (an offer that breaks it panics). A structure owns a
//! table plus its own index into the table's rows — hash leaves, trie
//! nodes, pair cells — and its `count_all` kernel; everything else
//! [`CandidateCounter`] offers is a provided method over the table.
//!
//! The serial pass hands the table the arena candidate generation wrote,
//! adopted without a copy. [`CounterBackend::build`] only reads its offer,
//! anything that yields `k`-item rows (`AsRef<[Item]>`), and
//! [`CounterBackend::build_share`] reads a share of a [`Candidates`] set in
//! place: every parallel driver names the rows of the run's one `C_k` it
//! counts — all of them, a run of them or its share of them — and at
//! `k = 2` the pair table is built from `F₁` and that share with no pair
//! written down (DESIGN.md §5.7).

use crate::candidates::Candidates;
use crate::hashtree::{HashTree, HashTreeParams, OwnershipFilter, PairTree};
use crate::item::Item;
use crate::itemset::ItemSet;
use crate::pairs::{Emit, PairCounter};
use crate::transaction::Transaction;
use crate::trie::CandidateTrie;
use crate::vertical::VerticalCounter;
use std::ops::Range;

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
    /// Every field as a `(name, value)` pair, in declaration order: the
    /// names are the metric-name suffixes the registry records under
    /// `armine.counting.<field>`. The exhaustive destructure
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

/// One pass's size-`k` candidates and their counts: everything about a
/// counting structure that does not depend on how it finds a candidate.
///
/// A candidate's place in the table is its *row*: its place among the
/// strictly ascending rows the table was built from. Every structure keeps
/// the table in that order and indexes into it.
#[derive(Debug, Clone)]
pub struct CandidateTable {
    pub(crate) k: usize,
    /// Candidate items, strided by `k`, in row order; empty for the pair
    /// counter, whose candidates are implicit.
    pub(crate) items: Vec<Item>,
    /// Running support counts, in row order.
    pub(crate) counts: Vec<u64>,
    pub(crate) stats: CounterStats,
}

impl CandidateTable {
    /// Copies `candidates` (given or lent: item sets, or rows of an arena)
    /// into the arena and adopts it (see [`from_arena`](Self::from_arena)).
    ///
    /// # Panics
    /// If `k == 0`, a candidate does not have exactly `k` items, or the
    /// candidates are not strictly ascending.
    pub(crate) fn new(k: usize, candidates: impl IntoIterator<Item: AsRef<[Item]>>) -> Self {
        assert!(k >= 1, "candidate size must be at least 1");
        let candidates = candidates.into_iter();
        let mut items: Vec<Item> = Vec::with_capacity(k * candidates.size_hint().0);
        for set in candidates {
            let set = set.as_ref();
            assert_eq!(set.len(), k, "candidate {set:?} has wrong size for k={k}");
            items.extend_from_slice(set);
        }
        Self::from_arena(k, items)
    }

    /// Adopts `items`, `k`-strided and strictly ascending as candidate
    /// generation writes them (or panics), as the arena without a copy:
    /// the one place the seam's input contract is checked.
    pub(crate) fn from_arena(k: usize, items: Vec<Item>) -> Self {
        assert_eq!(items.len() % k, 0, "arena is not strided by k={k}");
        let rows = || items.chunks_exact(k);
        let ascending = rows().zip(rows().skip(1)).all(|(a, b)| a < b);
        assert!(ascending, "candidates must be strictly ascending");
        let n = items.len() / k;
        CandidateTable {
            items,
            ..Self::counts_only(k, n)
        }
    }

    /// A table of `n` counts with no candidate rows, for a structure that
    /// keeps its candidates implicit (the pair counter).
    pub(crate) fn counts_only(k: usize, n: usize) -> Self {
        let stats = CounterStats {
            inserts: n as u64,
            ..CounterStats::default()
        };
        CandidateTable {
            k,
            items: Vec::new(),
            counts: vec![0; n],
            stats,
        }
    }

    /// Number of candidates stored.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// The candidate in `row`.
    pub(crate) fn candidate(&self, row: usize) -> &[Item] {
        &self.items[row * self.k..][..self.k]
    }
}

/// The contract every candidate-counting structure satisfies.
///
/// A counter is built over one pass's size-`k` candidates (via
/// [`CounterBackend::build`]), counts a batch of transactions under an
/// [`OwnershipFilter`], and reports per-candidate counts plus a
/// [`CounterStats`] work ledger. The trait is object-safe: the parallel
/// formulations hold a `Box<dyn CandidateCounter>` chosen by the config
/// knob. A structure supplies its [`CandidateTable`] and the
/// [`count_all`](Self::count_all) kernel; the rest is provided here, so
/// it cannot differ between structures.
///
/// Two ordering guarantees hold for every backend (CD's count-vector
/// reduction and DD/IDD's `frequent` exchange depend on them):
///
/// 1. [`count_vector`](Self::count_vector) and
///    [`counts_mut`](Self::counts_mut) index the candidates in **row
///    order**, which is ascending — identical across ranks because
///    `apriori_gen` is deterministic and sorted.
/// 2. [`frequent`](Self::frequent) returns survivors in row order.
pub trait CandidateCounter {
    /// The candidates and counts this structure indexes.
    fn table(&self) -> &CandidateTable;

    /// Mutable access to the table (for the provided methods).
    fn table_mut(&mut self) -> &mut CandidateTable;

    /// Counts every candidate contained in each transaction, honoring
    /// the ownership filter's root (and second-level) pruning.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter);

    /// The candidate size this counter was built for.
    fn k(&self) -> usize {
        self.table().k
    }

    /// Number of candidates stored.
    fn num_candidates(&self) -> usize {
        self.table().len()
    }

    /// Whether the counter holds no candidates.
    fn is_empty(&self) -> bool {
        self.num_candidates() == 0
    }

    /// The accumulated count for `set`, or `None` if never inserted.
    fn count_of(&self, set: &ItemSet) -> Option<u64> {
        let table = self.table();
        let row = table
            .items
            .chunks_exact(table.k)
            .position(|candidate| candidate == set.items())?;
        Some(table.counts[row])
    }

    /// Per-candidate counts in row order (what NPA's coordinator
    /// gathers), copied.
    fn count_vector(&self) -> Vec<u64> {
        self.table().counts.clone()
    }

    /// The per-candidate counts themselves, in row order: what CD's
    /// reduction sums in place.
    fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.table_mut().counts
    }

    /// Candidates with `count >= min_count`, row order.
    fn frequent(&self, min_count: u64) -> Vec<(ItemSet, u64)> {
        let table = self.table();
        (0..table.len())
            .filter(|&row| table.counts[row] >= min_count)
            .map(|row| {
                let set = ItemSet::from_sorted(table.candidate(row).to_vec());
                (set, table.counts[row])
            })
            .collect()
    }

    /// The work ledger accumulated since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    fn stats(&self) -> CounterStats {
        self.table().stats
    }

    /// Zeroes the work ledger (counts are kept).
    fn reset_stats(&mut self) {
        self.table_mut().stats = CounterStats::default();
    }
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
    /// candidates, strictly ascending as candidate generation writes them.
    /// `tree` shapes the hash tree and is ignored by the other backends.
    /// The candidates are only read: give a `Vec<ItemSet>`, or lend a
    /// `&[ItemSet]`, an iterator of `&ItemSet` or the rows of a `k`-strided
    /// arena (`arena.chunks_exact(k)`) and keep them.
    ///
    /// At `k = 2` every backend counts through the direct pair table of
    /// the `pairs` module (one probe per item pair), unless the candidates
    /// are so sparse over their item universe that the table would dwarf
    /// them: the trie and the vertical backend in place of their own
    /// structure, the hash tree under its shape alone (slots and leaf
    /// sizes, no candidate placed). Each transaction still walks that
    /// shape, so the hash tree's ledger, from which the virtual-time
    /// goldens are priced, is the full tree's at every `k`.
    ///
    /// # Panics
    /// If `k == 0`, a candidate does not have exactly `k` items, or the
    /// candidates are not strictly ascending (an unsorted or a repeated
    /// row).
    pub fn build(
        self,
        k: usize,
        tree: HashTreeParams,
        candidates: impl IntoIterator<Item: AsRef<[Item]>>,
    ) -> Box<dyn CandidateCounter> {
        self.index(tree, CandidateTable::new(k, candidates))
    }

    /// Builds the selected structure over a share of `candidates`: the
    /// rows in `range` that `share` holds, read in place.
    ///
    /// On `C₂ = F₁ × F₁` every backend builds the pair table straight from
    /// `F₁` and the share, so no pair is stored (the hash tree counts its
    /// shape from the table's pairs). A first item's row that the share
    /// holds whole, or not at all, is laid out in one step
    /// ([`Share::holds_from`]); only the rows it splits are read pair by
    /// pair. A deeper pass, a `C₂` held as an arena (PDM's bucket-pruned
    /// survivors) and a declined pair table are built over a copy of the
    /// share's rows, as [`build`](Self::build) would build them.
    pub fn build_share(
        self,
        tree: HashTreeParams,
        candidates: &Candidates,
        range: Range<usize>,
        share: impl Share,
    ) -> Box<dyn CandidateCounter> {
        if let Some(f1) = candidates.pair_items() {
            let runs = |emit: Emit| {
                for (row, i, js) in candidates.pair_rows(range.clone()) {
                    let first = f1[i as usize];
                    match share.holds_from(first) {
                        Some(true) => emit(i, js),
                        Some(false) => {}
                        None => {
                            for (r, j) in (row..).zip(js) {
                                if share.holds(r, &[first, f1[j as usize]]) {
                                    emit(i, j..j + 1);
                                }
                            }
                        }
                    }
                }
            };
            if let Some(pairs) = PairCounter::from_share(f1, runs) {
                return self.over_pairs(tree, pairs);
            }
        }
        let rows = || {
            let rows = range.clone().zip(candidates.rows(range.clone()));
            let owned = rows.filter(|(r, row)| share.holds(*r, row.as_ref()));
            owned.map(|(_, row)| row)
        };
        // Counted first, so that the table's arena is allocated once.
        let share = ExactLen {
            len: rows().count(),
            rows: rows(),
        };
        self.index(tree, CandidateTable::new(candidates.k(), share))
    }

    /// The one dispatch behind [`build`](Self::build) and the serial pass:
    /// at `k = 2` the pair table over the table's rows, unless it is
    /// declined and the table goes to the backend's own structure.
    pub(crate) fn index(
        self,
        tree: HashTreeParams,
        table: CandidateTable,
    ) -> Box<dyn CandidateCounter> {
        if table.k == 2 {
            if let Some(pairs) = PairCounter::from_rows(&table.items) {
                return self.over_pairs(tree, pairs);
            }
        }
        self.structure(tree, table)
    }

    /// The backend's pass-2 counter over the pair table: the table itself,
    /// or for the hash tree the table under the tree's shape.
    fn over_pairs(self, tree: HashTreeParams, pairs: PairCounter) -> Box<dyn CandidateCounter> {
        match self {
            CounterBackend::HashTree => Box::new(PairTree::new(tree, pairs)),
            CounterBackend::Trie | CounterBackend::Vertical => Box::new(pairs),
        }
    }

    /// The backend's own structure over `table`, never the pair table.
    fn structure(self, tree: HashTreeParams, table: CandidateTable) -> Box<dyn CandidateCounter> {
        match self {
            CounterBackend::HashTree => Box::new(HashTree::from_table(tree, table)),
            CounterBackend::Trie => Box::new(CandidateTrie::from_table(table)),
            CounterBackend::Vertical => Box::new(VerticalCounter::from_table(table)),
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

/// The rows of a candidate set that one counter is built over
/// ([`CounterBackend::build_share`]). A `Fn(row, items) -> bool` is asked
/// row by row; an [`OwnershipFilter`] holds the rows it owns, and knows
/// from a first item alone whether it owns every row starting there.
pub trait Share {
    /// Whether the share holds row `r`, whose items are `items`.
    fn holds(&self, r: usize, items: &[Item]) -> bool;

    /// Whether the share holds every row starting with `first`
    /// (`Some(true)`) or none of them (`Some(false)`); `None` when it must
    /// be asked row by row. Never `Some` for a share some of whose rows
    /// [`holds`](Self::holds) would answer differently.
    fn holds_from(&self, _first: Item) -> Option<bool> {
        None
    }
}

impl<F: Fn(usize, &[Item]) -> bool> Share for F {
    fn holds(&self, r: usize, items: &[Item]) -> bool {
        self(r, items)
    }
}

impl Share for OwnershipFilter {
    fn holds(&self, _: usize, items: &[Item]) -> bool {
        self.owns(items)
    }

    fn holds_from(&self, first: Item) -> Option<bool> {
        self.owns_from(first)
    }
}

/// An iterator that yields exactly `len` rows, saying so in its size hint.
struct ExactLen<I> {
    rows: I,
    len: usize,
}

impl<I: Iterator> Iterator for ExactLen<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let row = self.rows.next()?;
        self.len -= 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bitmap::ItemBitmap;
    use crate::item::Item;
    use crate::transaction::k_subsets;
    use rand::prelude::*;

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

    /// The message of the panic `f` must raise.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        let text = payload.downcast_ref::<String>().cloned();
        text.unwrap_or_else(|| {
            payload
                .downcast_ref::<&str>()
                .expect("a message")
                .to_string()
        })
    }

    // The counting contract. Each behaviour every counting structure shares
    // is one case below, run over every backend by the tests that follow:
    // each backend as the seam builds it, at `k = 2` also as its own
    // structure (what a declined pair table builds), the hash tree under
    // two fan-outs, and `k` = 1…4. A new check of what every counter does
    // is a case here; a structure's own mechanism is tested in its module.

    /// A hash tree that splits down to one candidate a leaf, two buckets a
    /// node, so that its leaf order differs from the row order.
    const SPLITTING: HashTreeParams = HashTreeParams {
        branching: 2,
        max_leaf: 1,
    };

    /// One way a pass's candidates get counted.
    #[derive(Debug, Clone, Copy)]
    struct Subject {
        backend: CounterBackend,
        tree: HashTreeParams,
        /// The backend's own structure even at `k = 2`, where the seam
        /// builds the pair table (for the hash tree, under the tree's
        /// shape).
        own: bool,
    }

    impl Subject {
        fn build(&self, k: usize, candidates: &[ItemSet]) -> Box<dyn CandidateCounter> {
            if self.own {
                let table = CandidateTable::new(k, candidates);
                self.backend.structure(self.tree, table)
            } else {
                self.backend.build(k, self.tree, candidates)
            }
        }

        /// Whether this is the full hash tree, which scores every candidate
        /// of each leaf its walk reached: its count of a candidate its
        /// filter does not own depends on which hash buckets collide.
        fn scores_whole_leaves(&self, k: usize) -> bool {
            self.backend == CounterBackend::HashTree && (self.own || k != 2)
        }

        /// Whether the ledger is the same however a page is cut into calls:
        /// for every structure but the vertical counter, which pivots each
        /// call's transactions and then sweeps every candidate once a call.
        fn split_invariant(&self) -> bool {
            self.backend != CounterBackend::Vertical
        }
    }

    /// Runs `check` on every subject of `backend` at `k` = 1…4, with the
    /// subject, `k` and their name.
    fn each_subject(backend: CounterBackend, mut check: impl FnMut(Subject, usize, &str)) {
        let trees = match backend {
            CounterBackend::HashTree => vec![HashTreeParams::default(), SPLITTING],
            _ => vec![HashTreeParams::default()],
        };
        for k in 1..=4 {
            for &tree in &trees {
                for own in [false, true].into_iter().take(1 + usize::from(k == 2)) {
                    let subject = Subject { backend, tree, own };
                    check(subject, k, &format!("{subject:?} at k={k}"));
                }
            }
        }
    }

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn tx(ids: &[u32]) -> Transaction {
        Transaction::new(0, ids.iter().map(|&i| Item(i)).collect())
    }

    /// The single-digit ids of `digits`, as in "1235".
    fn ids(digits: &str) -> Vec<u32> {
        digits.bytes().map(|b| u32::from(b - b'0')).collect()
    }

    /// The fifteen 3-candidates of the paper's worked example (Figures 2
    /// and 3).
    pub(crate) fn paper_candidates() -> Vec<ItemSet> {
        let paper = "124 125 136 145 159 234 345 356 357 367 368 457 458 567 689";
        paper.split(' ').map(|c| set(&ids(c))).collect()
    }

    /// Each candidate's support in `txs`, by subset containment.
    fn supports(candidates: &[ItemSet], txs: &[Transaction]) -> Vec<u64> {
        let support = |c| txs.iter().filter(|t| t.contains_set(c)).count() as u64;
        candidates.iter().map(support).collect()
    }

    /// 400 seeded transactions over items 0..48, so a page spans two hash
    /// tree batches: two of six 7-item patterns and three noise items
    /// each, so that candidates of every size are found; every 16th cut
    /// to fewer than four items, every 20th holding items above every
    /// candidate item.
    pub(crate) fn slab() -> Vec<Transaction> {
        let mut rng = StdRng::seed_from_u64(1997);
        let mut ids: Vec<u32> = (0..48).collect();
        let patterns: Vec<Vec<u32>> = (0..6)
            .map(|_| {
                ids.shuffle(&mut rng);
                ids[..7].to_vec()
            })
            .collect();
        (0..400u64)
            .map(|tid| {
                let mut items: Vec<u32> = patterns[rng.gen_range(0..patterns.len())].clone();
                items.extend(&patterns[rng.gen_range(0..patterns.len())]);
                items.extend((0..3).map(|_| rng.gen_range(0..48u32)));
                if tid % 16 == 1 {
                    items.truncate(tid as usize % 4);
                }
                if tid % 20 == 0 {
                    items.extend([60, 700]);
                }
                Transaction::new(tid, items.into_iter().map(Item).collect())
            })
            .collect()
    }

    /// Seeded candidates of size `k`, strictly ascending: every so many
    /// `k`-subsets of the slab's first three transactions (found often) and
    /// random `k`-sets over items 0..48 (found rarely).
    pub(crate) fn candidates(k: usize, slab: &[Transaction]) -> Vec<ItemSet> {
        let found: Vec<ItemSet> = slab[..3].iter().flat_map(|t| k_subsets(t, k)).collect();
        let mut rng = StdRng::seed_from_u64(k as u64);
        let mut ids: Vec<u32> = (0..48).collect();
        let random = (0..100).map(|_| {
            ids.shuffle(&mut rng);
            set(&ids[..k])
        });
        let step = 1 + found.len() / 250;
        let mut sets: Vec<ItemSet> = found.into_iter().step_by(step).chain(random).collect();
        sets.sort();
        sets.dedup();
        sets
    }

    /// No filter, IDD's first-item bitmap (the odd first items) and a
    /// two-level filter (every third first item outright, every fourth
    /// from 1 split by second item).
    pub(crate) fn filters() -> [(&'static str, OwnershipFilter); 3] {
        let odd = ItemBitmap::from_items(48, (1..48).step_by(2).map(Item));
        let thirds = ItemBitmap::from_items(48, (0..48).step_by(3).map(Item));
        let split = (1..48)
            .step_by(4)
            .flat_map(|a| (a + 1..48).step_by(2).map(move |b| (Item(a), Item(b))))
            .collect();
        [
            ("all", OwnershipFilter::all()),
            ("first-item", OwnershipFilter::first_item(odd)),
            ("two-level", OwnershipFilter::two_level(thirds, split)),
        ]
    }

    /// The candidates of `candidates` that `filter` owns: a driver's share.
    fn owned_by(candidates: &[ItemSet], filter: &OwnershipFilter) -> Vec<ItemSet> {
        let owned = candidates.iter().filter(|c| filter.owns(c.items()));
        owned.cloned().collect()
    }

    /// The hash tree's pass-2 shape charges what the full tree does, whose
    /// ledger the model prices: `counter`, one of `subject`'s, has counted
    /// `txs` once.
    fn charges_as_the_full_tree(
        subject: Subject,
        k: usize,
        counter: &dyn CandidateCounter,
        candidates: &[ItemSet],
        txs: &[Transaction],
    ) {
        if subject.backend == CounterBackend::HashTree && k == 2 {
            let mut full = Subject {
                own: true,
                ..subject
            }
            .build(k, candidates);
            full.count_all(txs, &OwnershipFilter::all());
            assert_eq!(counter.stats(), full.stats(), "{subject:?}");
        }
    }

    /// The worked example of Figures 2 and 3: of the paper's fifteen
    /// 3-candidates, the transaction {1 2 3 5 6} holds exactly {1 2 5},
    /// {1 3 6} and {3 5 6}.
    pub(crate) fn paper_example(backend: CounterBackend) {
        let candidates = paper_candidates();
        let held = [set(&[1, 2, 5]), set(&[1, 3, 6]), set(&[3, 5, 6])];
        each_subject(backend, |subject, k, on| {
            if k != 3 {
                return;
            }
            let mut counter = subject.build(3, &candidates);
            counter.count_all(&[tx(&[1, 2, 3, 5, 6])], &OwnershipFilter::all());
            for c in &candidates {
                let want = u64::from(held.contains(c));
                assert_eq!(counter.count_of(c), Some(want), "{on}: {c}");
            }
            assert_eq!(counter.count_of(&set(&[1, 2, 3])), None, "{on}");
        });
    }

    /// Counts equal subset containment on seeded data: the count vector in
    /// row order, `count_of` of each candidate, and `frequent`'s survivors
    /// in row order. At `k = 2` the seam takes the pair table.
    pub(crate) fn brute_force(backend: CounterBackend) {
        let slab = slab();
        each_subject(backend, |subject, k, on| {
            let candidates = candidates(k, &slab);
            if k == 2 {
                let table = CandidateTable::new(2, &candidates);
                assert!(PairCounter::from_rows(&table.items).is_some(), "{on}");
            }
            let want = supports(&candidates, &slab);
            let mut counter = subject.build(k, &candidates);
            counter.count_all(&slab, &OwnershipFilter::all());
            assert_eq!(counter.count_vector(), want, "{on}");
            charges_as_the_full_tree(subject, k, &*counter, &candidates, &slab);
            for (c, &n) in candidates.iter().zip(&want) {
                assert_eq!(counter.count_of(c), Some(n), "{on}: {c}");
            }
            let mut sorted = want.clone();
            sorted.sort_unstable();
            let min = sorted[sorted.len() * 3 / 4].max(1);
            let pairs = candidates.iter().cloned().zip(want.iter().copied());
            let survivors: Vec<(ItemSet, u64)> = pairs.filter(|&(_, n)| n >= min).collect();
            assert!(survivors.len() < candidates.len(), "{on}: nothing filtered");
            assert_eq!(counter.frequent(min), survivors, "{on}");
        });
    }

    /// Under IDD's first-item filter and the two-level one, a counter over
    /// the share its filter owns, as a driver builds it, counts that share
    /// exactly. A counter over every candidate counts the owned ones
    /// exactly, the others (but on the full hash tree) not at all, charges
    /// no field more than it does unfiltered and starts fewer walks.
    pub(crate) fn filters_prune(backend: CounterBackend) {
        let slab = slab();
        let all = OwnershipFilter::all();
        each_subject(backend, |subject, k, on| {
            let candidates = candidates(k, &slab);
            let mut unfiltered = subject.build(k, &candidates);
            unfiltered.count_all(&slab, &all);
            for (name, filter) in &filters()[1..] {
                let on = format!("{on}, {name}");
                let share = owned_by(&candidates, filter);
                assert!(!share.is_empty() && share.len() < candidates.len(), "{on}");
                let mut owned = subject.build(k, &share);
                owned.count_all(&slab, filter);
                assert_eq!(owned.count_vector(), supports(&share, &slab), "{on}");

                let mut every = subject.build(k, &candidates);
                every.count_all(&slab, filter);
                let counts = every
                    .count_vector()
                    .into_iter()
                    .zip(unfiltered.count_vector());
                for (c, (got, whole)) in candidates.iter().zip(counts) {
                    if filter.owns(c.items()) {
                        assert_eq!(got, whole, "{on}: {c}");
                    } else if !subject.scores_whole_leaves(k) {
                        assert_eq!(got, 0, "{on}: {c} is not owned");
                    }
                }
                let fields = every.stats().named_fields();
                for ((field, got), (_, whole)) in
                    fields.into_iter().zip(unfiltered.stats().named_fields())
                {
                    assert!(got <= whole, "{on}: {field} {got} > {whole}");
                }
                assert!(
                    every.stats().root_starts < unfiltered.stats().root_starts,
                    "{on}"
                );
            }
        });
    }

    /// The ledger: building charges `inserts` and nothing else; counting a
    /// page again charges every other field what the first count did;
    /// resetting it zeroes every field and keeps the counts.
    pub(crate) fn ledger_accrues_and_resets(backend: CounterBackend) {
        let slab = slab();
        let all = OwnershipFilter::all();
        each_subject(backend, |subject, k, on| {
            let candidates = candidates(k, &slab);
            let mut counter = subject.build(k, &candidates);
            let built = CounterStats {
                inserts: candidates.len() as u64,
                ..CounterStats::default()
            };
            assert_eq!(counter.stats(), built, "{on}");
            counter.count_all(&slab, &all);
            let once = counter.stats();
            assert_eq!(once.transactions, slab.len() as u64, "{on}");
            assert!(
                once.traversal_steps > 0 && once.candidate_checks > 0,
                "{on}"
            );
            counter.count_all(&slab, &all);
            let again = CounterStats { inserts: 0, ..once };
            assert_eq!(counter.stats(), once.merged(&again), "{on}");
            counter.reset_stats();
            assert_eq!(counter.stats(), CounterStats::default(), "{on}");
            let doubled: Vec<u64> = supports(&candidates, &slab).iter().map(|n| 2 * n).collect();
            assert_eq!(counter.count_vector(), doubled, "{on}");
        });
    }

    /// Row order, in place and copied, the count vector's round trip,
    /// `count_of`, `frequent`, an offer of the wrong size and one that is
    /// not strictly ascending, and an offer lent in every form the drivers
    /// lend it.
    pub(crate) fn bookkeeping(backend: CounterBackend) {
        let txs = ["1234", "123", "234", "13", "4", "12345", "25"].map(|t| tx(&ids(t)));
        let flat = |offer: &[ItemSet]| -> Vec<Item> {
            offer.iter().flat_map(ItemSet::items).copied().collect()
        };
        let all = OwnershipFilter::all();
        each_subject(backend, |subject, k, on| {
            // Every k-subset of {1, …, 5}, ascending.
            let sets = k_subsets(&tx(&[1, 2, 3, 4, 5]), k);
            let want = supports(&sets, &txs);
            // Out of order, and in order with one candidate offered twice.
            let unsorted: Vec<ItemSet> = [1, 0, 2].map(|i| sets[i].clone()).into();
            let repeated: Vec<ItemSet> = [0, 1, 1, 2].map(|i| sets[i].clone()).into();

            let mut counter = subject.build(k, &sets);
            assert_eq!(
                (counter.k(), counter.num_candidates()),
                (k, sets.len()),
                "{on}"
            );
            assert!(!counter.is_empty(), "{on}");

            // Count vector: row order, in place as copied (for the
            // splitting hash tree too, whose leaf order is not the row
            // order), round trip.
            counter.count_all(&txs, &all);
            assert_eq!(counter.count_vector(), want, "{on}");
            assert_eq!(counter.counts_mut(), want, "{on}");
            charges_as_the_full_tree(subject, k, &*counter, &sets, &txs);
            let doubled: Vec<u64> = want.iter().map(|c| c * 2).collect();
            counter.counts_mut().copy_from_slice(&doubled);
            assert_eq!(counter.count_vector(), doubled, "{on}");

            // `count_of`: present, absent, wrong size.
            for (c, &count) in sets.iter().zip(&doubled) {
                assert_eq!(counter.count_of(c), Some(count), "{on}: {c}");
            }
            let absent: Vec<Item> = (6..6 + k as u32).map(Item).collect();
            assert_eq!(counter.count_of(&ItemSet::new(absent)), None, "{on}");
            assert_eq!(counter.count_of(&ItemSet::empty()), None, "{on}");

            // `frequent`: filtered, row order.
            let survivors = |min: u64| -> Vec<(ItemSet, u64)> {
                let pairs = sets.iter().cloned().zip(doubled.iter().copied());
                pairs.filter(|&(_, count)| count >= min).collect()
            };
            assert_eq!(counter.frequent(0), survivors(0), "{on}");
            let top = *doubled.iter().max().expect("non-empty");
            assert_eq!(counter.frequent(top), survivors(top), "{on}");
            assert!(survivors(top).len() < sets.len(), "{on}: nothing filtered");

            // A candidate of the wrong size, an unsorted offer and a
            // repeated one are refused.
            let long = ItemSet::new((1..=k as u32 + 1).map(Item).collect());
            let message = panic_message(|| drop(subject.build(k, &[long])));
            assert!(message.contains("wrong size"), "{on}: {message}");
            for offer in [&unsorted, &repeated] {
                let message = panic_message(|| drop(subject.build(k, offer)));
                assert!(message.contains("strictly ascending"), "{on}: {message}");
                let tree = subject.tree;
                let message = panic_message(|| drop(HashTree::build(k, tree, offer.clone())));
                assert!(message.contains("strictly ascending"), "{on}: {message}");
                let message = panic_message(|| drop(CandidateTable::from_arena(k, flat(offer))));
                assert!(message.contains("strictly ascending"), "{on}: {message}");
            }
            if k > 1 {
                let ragged = flat(&sets)[1..].to_vec();
                let message = panic_message(|| drop(CandidateTable::from_arena(k, ragged)));
                assert!(message.contains("not strided"), "{on}: {message}");
            }
            if subject.own {
                return;
            }

            // The offer is only read: lending it, as a slice, as an
            // iterator of references (filtered, so of unknown length, like
            // a partitioned rank's share) or as the rows of a `k`-strided
            // arena (as the parallel drivers lend `C_k`), builds what
            // giving it builds — row for row. The serial pass's arena is
            // adopted as it stands.
            let (backend, tree) = (subject.backend, subject.tree);
            let mut given = backend.build(k, tree, sets.clone());
            given.count_all(&txs, &all);
            let slice = backend.build(k, tree, &sets[..]);
            let refs = backend.build(k, tree, sets.iter().filter(|_| true));
            let arena = flat(&sets);
            let rows = backend.build(k, tree, arena.chunks_exact(k));
            let adopted = backend.index(tree, CandidateTable::from_arena(k, flat(&sets)));
            for mut lent in [slice, refs, rows, adopted] {
                assert_eq!(lent.stats().inserts, sets.len() as u64, "{on}");
                lent.count_all(&txs, &all);
                assert_eq!(lent.stats(), given.stats(), "{on}");
                assert_eq!(lent.num_candidates(), given.num_candidates(), "{on}");
                assert_eq!(lent.table().items, given.table().items, "{on}");
                assert_eq!(lent.count_vector(), given.count_vector(), "{on}");
                assert_eq!(lent.frequent(1), given.frequent(1), "{on}");
            }
        });
    }

    /// An empty offer counts nothing, not even transactions, and an empty
    /// page changes nothing. Transactions shorter than `k`, the empty one
    /// among them, are charged as transactions and match nothing; but on
    /// the vertical counter, which pivots each call's items and sweeps
    /// every candidate once a call, they charge nothing else.
    pub(crate) fn empty_and_short(backend: CounterBackend) {
        let slab = slab();
        let all = OwnershipFilter::all();
        each_subject(backend, |subject, k, on| {
            let mut empty = subject.build(k, &[]);
            assert!(empty.is_empty(), "{on}");
            empty.count_all(&slab, &all);
            assert_eq!(empty.stats(), CounterStats::default(), "{on}");
            let nothing = empty.count_vector().is_empty() && empty.frequent(0).is_empty();
            assert!(nothing, "{on}");

            let candidates = candidates(k, &slab);
            let mut counter = subject.build(k, &candidates);
            let built = counter.stats();
            counter.count_all(&[], &all);
            assert_eq!(counter.stats(), built, "{on}");
            let short: Vec<Transaction> = (slab.iter())
                .map(|t| Transaction::new(t.tid(), t.items()[..t.len().min(k - 1)].to_vec()))
                .collect();
            counter.count_all(&short, &all);
            assert!(counter.count_vector().iter().all(|&n| n == 0), "{on}");
            let charged = CounterStats {
                transactions: short.len() as u64,
                ..built
            };
            match subject.split_invariant() {
                true => assert_eq!(counter.stats(), charged, "{on}"),
                false => assert_eq!(counter.stats().transactions, charged.transactions, "{on}"),
            }
        });
    }

    /// Candidates at [`Item::MAX_ID`] are indexed, found and counted, and
    /// building over them writes only the pages of the ids they hold. A
    /// pair table over them is declined, so at `k = 2` the seam builds each
    /// backend's own structure. Transactions shorter than `k` never start
    /// a walk.
    pub(crate) fn largest_item_id(backend: CounterBackend) {
        let top = Item::MAX_ID;
        let txs = [
            tx(&[3, 4, 5, 6, top]),
            tx(&[3, 4, 5, 6, top - 3, top - 2, top - 1, top]),
            tx(&[top - 1, top]),
            tx(&[top]),
            tx(&[]),
        ];
        let all = OwnershipFilter::all();
        each_subject(backend, |subject, k, on| {
            let low: Vec<u32> = (3..3 + k as u32).collect();
            let mixed: Vec<u32> = low[..k - 1].iter().copied().chain([top]).collect();
            let high: Vec<u32> = (top + 1 - k as u32..=top).collect();
            let mut candidates = vec![set(&low), set(&mixed), set(&high)];
            candidates.dedup();
            if k == 2 && !subject.own {
                let table = CandidateTable::new(2, &candidates);
                assert!(PairCounter::from_rows(&table.items).is_none(), "{on}");
            }
            let mut counter = crate::item::touching_few_pages(|| subject.build(k, &candidates));
            counter.count_all(&txs, &all);
            assert_eq!(counter.count_vector(), supports(&candidates, &txs), "{on}");
            assert!(counter.count_vector().iter().all(|&n| n > 0), "{on}");
            assert_eq!(counter.stats().transactions, txs.len() as u64, "{on}");
            let long: Vec<Transaction> = txs.iter().filter(|t| t.len() >= k).cloned().collect();
            let mut walked = subject.build(k, &candidates);
            walked.count_all(&long, &all);
            let starts = (counter.stats().root_starts, walked.stats().root_starts);
            assert_eq!(starts.0, starts.1, "{on}: a short one started");
        });
    }

    /// A page counted in one call counts what the same page cut at seeded
    /// points does, under every filter, and charges all seven ledger
    /// fields alike: the full hash tree, the pass-2 shape, the pair table
    /// and the trie. The vertical counter pivots each call's transactions
    /// and sweeps every candidate once a call, so only its per-transaction
    /// fields are the same.
    pub(crate) fn page_split(backend: CounterBackend) {
        let slab = slab();
        let mut rng = StdRng::seed_from_u64(256);
        each_subject(backend, |subject, k, on| {
            let candidates = candidates(k, &slab);
            for (name, filter) in &filters() {
                let share = owned_by(&candidates, filter);
                let mut whole = subject.build(k, &share);
                whole.count_all(&slab, filter);
                assert!(whole.count_vector().iter().any(|&n| n > 0), "{on}, {name}");
                for _ in 0..4 {
                    let mut cuts: Vec<usize> = (0..rng.gen_range(1..6))
                        .map(|_| rng.gen_range(0..=slab.len()))
                        .chain([0, slab.len()])
                        .collect();
                    cuts.sort_unstable();
                    let mut split = subject.build(k, &share);
                    for piece in cuts.windows(2) {
                        split.count_all(&slab[piece[0]..piece[1]], filter);
                    }
                    let on = format!("{on}, {name}, cuts {cuts:?}");
                    assert_eq!(split.count_vector(), whole.count_vector(), "{on}");
                    let per_transaction = |s: CounterStats| (s.transactions, s.traversal_steps);
                    match subject.split_invariant() {
                        true => assert_eq!(split.stats(), whole.stats(), "{on}"),
                        false => assert_eq!(
                            per_transaction(split.stats()),
                            per_transaction(whole.stats()),
                            "{on}"
                        ),
                    }
                }
            }
        });
    }

    /// Building over a candidate of the wrong size panics, at `k = 2`
    /// before the pair table is tried.
    pub(crate) fn wrong_size(backend: CounterBackend) {
        drop(backend.build(2, HashTreeParams::default(), [set(&[1, 2, 3])]));
    }

    #[test]
    fn all_backends_count_identically_through_the_trait() {
        for backend in CounterBackend::ALL {
            paper_example(backend);
            brute_force(backend);
            largest_item_id(backend);
        }
    }

    #[test]
    fn table_bookkeeping_is_the_same_behind_every_backend() {
        for backend in CounterBackend::ALL {
            bookkeeping(backend);
            ledger_accrues_and_resets(backend);
            empty_and_short(backend);
        }
    }

    #[test]
    fn filters_prune_alike_behind_every_backend() {
        CounterBackend::ALL.into_iter().for_each(filters_prune);
    }

    #[test]
    fn a_page_split_anywhere_counts_alike_behind_every_backend() {
        CounterBackend::ALL.into_iter().for_each(page_split);
    }

    /// Tests in a structure's own module that run contract cases on its
    /// backend alone, under the names the cases' checks had there before
    /// this suite held them, so that a run filtered by those names still
    /// finds them. `name => case` is a test that runs `case`; an attribute
    /// before it (`#[should_panic]`) goes with it.
    macro_rules! run_on {
        ($backend:ident: $($(#[$attr:meta])* $name:ident => $case:ident,)*) => {$(
            #[test]
            $(#[$attr])*
            fn $name() {
                use $crate::counter::{tests, CounterBackend};
                tests::$case(CounterBackend::$backend);
            }
        )*};
    }
    pub(crate) use run_on;

    /// A share whose rows are laid out whole where its filter owns a first
    /// item's row whole ([`Share::holds_from`]) builds the counter that
    /// asking it pair by pair builds: the same counts, level and ledger,
    /// over all of `C₂` and over a run of it.
    fn by_rows_or_pairs(
        c2: &Candidates,
        txs: &[Transaction],
        name: &str,
        plan: &crate::binpack::CandidatePartition,
        proc: usize,
    ) {
        struct ByRows<'a>(&'a crate::binpack::CandidatePartition, usize);
        impl Share for ByRows<'_> {
            fn holds(&self, r: usize, items: &[Item]) -> bool {
                self.0.owns(self.1, r, items)
            }
            fn holds_from(&self, first: Item) -> Option<bool> {
                self.0.owns_from(self.1, first)
            }
        }
        let filter = &plan.filters[proc];
        let tree = HashTreeParams::default();
        let len = c2.len();
        for range in [0..len, len / 3..len * 2 / 3] {
            for backend in CounterBackend::ALL {
                let on = format!("{name} {proc}, rows {range:?} on {}", backend.name());
                let pairwise = |r: usize, row: &[Item]| plan.owns(proc, r, row);
                let mut want = backend.build_share(tree, c2, range.clone(), pairwise);
                let mut got = backend.build_share(tree, c2, range.clone(), ByRows(plan, proc));
                want.count_all(txs, filter);
                got.count_all(txs, filter);
                assert_eq!(got.count_vector(), want.count_vector(), "{on}");
                assert_eq!(got.frequent(1), want.frequent(1), "{on}");
                assert_eq!(got.stats(), want.stats(), "{on}");
            }
        }
    }

    /// The pair table a backend builds at `k = 2` from `F₁` and a share
    /// counts, and orders its level, as the trie's own structure does over
    /// the share's rows: all of `C₂`, contiguous runs of it, round-robin,
    /// first-item and two-level shares (each under its own filter) and
    /// hash-owned ones. With an `F₁` item at [`Item::MAX_ID`] the pair
    /// table is declined, and each backend's own structure counts and
    /// charges what it does when built directly (for the hash tree, the
    /// full tree, whose ledger its pass-2 shape charges in any case).
    #[test]
    fn pair_table_matches_the_trie_and_a_declined_one_is_the_backends_own() {
        use crate::binpack::{partition_by_first_item, partition_round_robin, partition_two_level};
        use crate::candidates::Row;
        use crate::stable_hash::owner_of;
        use crate::trie::CandidateTrie;

        let top = Item(Item::MAX_ID);
        let mut rng = StdRng::seed_from_u64(1997);
        let txs: Vec<Transaction> = (0..300u64)
            .map(|tid| {
                let mut ids: Vec<u32> = (0..70).chain([Item::MAX_ID]).collect();
                ids.shuffle(&mut rng);
                let len = rng.gen_range(0..=16usize);
                Transaction::new(tid, ids[..len].iter().map(|&id| Item(id)).collect())
            })
            .collect();
        let odd: Vec<Item> = (3..62).step_by(2).map(Item).collect();
        let tree = HashTreeParams::default();
        for (f1, declined) in [(odd, false), (vec![Item(3), Item(9), Item(40), top], true)] {
            let c2 = Candidates::pairs(f1.clone());
            let len = c2.len();
            let rows = || c2.rows(0..len);
            type Keep<'a> = Box<dyn Fn(usize, &[Item]) -> bool + 'a>;
            let mut shares: Vec<(String, Range<usize>, Keep, OwnershipFilter)> = vec![
                (
                    "all".into(),
                    0..len,
                    Box::new(|_, _| true),
                    OwnershipFilter::all(),
                ),
                (
                    "run".into(),
                    len / 3..len / 2,
                    Box::new(|_, _| true),
                    OwnershipFilter::all(),
                ),
            ];
            let mut plans = vec![("round-robin", partition_round_robin(rows(), 3))];
            if !declined {
                plans.push(("first-item", partition_by_first_item(rows(), 64, &[1.0; 3])));
                plans.push(("two-level", partition_two_level(rows(), 64, &[1.0; 3], 20)));
            }
            for (name, plan) in plans {
                let plan = std::rc::Rc::new(plan);
                for proc in 0..3 {
                    by_rows_or_pairs(&c2, &txs, name, &plan, proc);
                    let owns = std::rc::Rc::clone(&plan);
                    let keep: Keep = Box::new(move |r, row| owns.owns(proc, r, row));
                    shares.push((
                        format!("{name} {proc}"),
                        0..len,
                        keep,
                        plan.filters[proc].clone(),
                    ));
                }
            }
            let hashed: Keep = Box::new(|_, row| owner_of(row, 3) == 1);
            shares.push(("hash-owned".into(), 0..len, hashed, OwnershipFilter::all()));

            for (shape, range, keep, filter) in shares {
                let on = format!("|F1| = {}, {shape}", f1.len());
                let owned: Vec<Row> = range
                    .clone()
                    .zip(c2.rows(range.clone()))
                    .filter(|(r, row)| keep(*r, row.as_ref()))
                    .map(|(_, row)| row)
                    .collect();
                let table = || CandidateTable::new(2, &owned);
                let mut trie = CandidateTrie::from_table(table());
                trie.count_all(&txs, &filter);
                assert!(
                    trie.count_vector().iter().any(|&c| c > 0),
                    "{on}: nothing counted"
                );
                for backend in CounterBackend::ALL {
                    let on = format!("{on} on {}", backend.name());
                    let mut share = backend.build_share(tree, &c2, range.clone(), &keep);
                    share.count_all(&txs, &filter);
                    assert_eq!(share.count_vector(), trie.count_vector(), "{on}");
                    assert_eq!(share.frequent(2), trie.frequent(2), "{on}");
                    let mut own: Box<dyn CandidateCounter> = match backend {
                        CounterBackend::HashTree => Box::new(HashTree::from_table(tree, table())),
                        CounterBackend::Trie => Box::new(CandidateTrie::from_table(table())),
                        CounterBackend::Vertical => Box::new(VerticalCounter::from_table(table())),
                    };
                    own.count_all(&txs, &filter);
                    // The hash tree's pass-2 ledger is the full tree's anyway.
                    let same = declined || backend == CounterBackend::HashTree;
                    assert_eq!(share.stats() == own.stats(), same, "{on}: the ledger");
                }
            }
        }
    }
}
