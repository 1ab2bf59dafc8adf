//! The candidate hash tree of Section II, with the instrumentation the
//! paper's analysis (Section IV) and Figure 11 require.
//!
//! Internal nodes hold hash tables (fixed fan-out) linking to children;
//! leaves hold candidate itemsets. Candidates are routed by hashing
//! successive items; a node that more than `max_leaf` candidates reach
//! while its depth is still less than `k` is an internal node that
//! distributes them by the next item. The `subset` operation walks the
//! tree with every item of a transaction as a possible starting item,
//! recursively hashing the items that follow, and checks the candidates
//! of each **distinct** leaf it reaches exactly once per transaction
//! (re-visits are suppressed with a visit bit per leaf, as the paper
//! describes: "if this node is revisited due to a different candidate
//! from the same transaction, no checking needs to be performed").
//!
//! The tree counts its own work — hash-descents (`t_travers` units),
//! distinct leaf visits (`t_check` units), and per-candidate comparisons —
//! which is what lets the parallel simulator price computation with the
//! paper's cost model, and what regenerates Figure 11 directly.
//!
//! The whole candidate set is known before a pass starts, so the tree is
//! built in bulk and stored flat: the nodes in one arena (see `arena`),
//! the candidates in the seam's [`CandidateTable`], in row order like
//! every other structure's. The tree keeps its leaf order to itself: per
//! candidate in leaf order, its row and the mask rows of its items, so a
//! leaf check scans contiguous memory and adds to the counts by row. The
//! shape is exactly the one split-on-overflow insertion grows, so the work
//! ledger for a given `(branching, max_leaf)` does not depend on how the
//! tree is stored.
//!
//! Nor does it depend on how the host executes each charged step.
//! `count_all` counts transactions 256 at a time, one bit each of a
//! `[u64; 4]`. The walk of the batch's `j`-th transaction goes level by
//! level: the `(node, start)` entries of one depth are expanded together,
//! interior children queued for the next depth and leaves for an arrival
//! list, each in chunks of fixed size, so the walk's memory does not grow
//! with the transaction's paths. Each arrival then sets bit `j` of its
//! leaf's visit bits (a leaf whose bit is already set is the paper's
//! revisit, and is neither charged nor marked again), and the transaction
//! sets bit `j` in the mask of each of its items. After the batch one
//! sweep over the leaves, in leaf order, checks every leaf the batch
//! reached: a candidate's row gains the popcount of the leaf's visit bits
//! ANDed with the masks of its `k` items, without a branch. The masks are
//! one `[u64; 4]` per distinct candidate item, each candidate's read
//! through the mask rows built with the tree; a transaction's are set
//! through a `u32` item id → rank index up to the tree's largest
//! candidate item: 1 KB of index over 250 items, 512 MiB
//! at [`Item::MAX_ID`](crate::Item::MAX_ID), allocated zeroed so only the
//! pages of ids that occur are touched, and half the pass-1 count vector
//! such an input already allocates. A transaction item no candidate holds
//! matches nothing, but the walk still hashes it and descends where a
//! child exists: the ledger counts the paper's walk, not the cheapest one.
//!
//! Pass 2 needs no tree to find a candidate: a pair is found by one probe
//! of the direct pair table (`crate::pairs`). So at `k = 2`
//! [`CounterBackend`](crate::counter::CounterBackend) builds a
//! `PairTree`: the pair table counts, and the tree keeps only its shape,
//! the slots and leaf sizes that counting the pairs into hash cells gives
//! (`Arena::pair_shape`: by first item's bucket, then by second item's
//! within each bucket too full to be a leaf), with no candidate row, leaf
//! order, visit bits or mask. Each transaction walks the shape with the
//! same walk, charging the full tree's ledger, and a leaf records only
//! the last transaction that reached it, which is all a revisit needs.
//! [`HashTree::build`] is always the full tree.

mod arena;
mod filter;

pub use filter::OwnershipFilter;

use crate::counter::{CandidateCounter, CandidateTable};
use crate::item::ItemIndex;
use crate::itemset::ItemSet;
use crate::pairs::PairCounter;
use crate::transaction::Transaction;
use arena::{bit, Arena, Bits, BATCH};

/// Configuration for a [`HashTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashTreeParams {
    /// Hash-table fan-out of internal nodes (the example of Figure 2 uses
    /// 3). `0`, the default, sizes it per tree from the candidate count
    /// (see [`fan_out`](Self::fan_out)); any other value pins it.
    pub branching: usize,
    /// Maximum candidates per leaf before it splits (the paper's "maximum
    /// allowed"; this controls `S`, the average leaf occupancy, in the
    /// analysis).
    pub max_leaf: usize,
}

impl Default for HashTreeParams {
    fn default() -> Self {
        HashTreeParams {
            branching: 0,
            max_leaf: 16,
        }
    }
}

/// The smallest fan-out the sizing rule picks (the fixed fan-out of
/// earlier revisions).
const MIN_SIZED_BRANCHING: usize = 8;

impl HashTreeParams {
    /// The fan-out of a tree over `num_candidates` size-`k` candidates:
    /// `branching` itself when it is pinned, otherwise the smallest
    /// `b >= 8` with `b^k >= 2 * num_candidates / max_leaf`.
    ///
    /// Section IV's analysis holds `S`, the candidates per leaf, constant
    /// as `M` grows, which a fixed fan-out cannot: a depth-`k` leaf never
    /// splits, so once `M` passes `b^k * max_leaf` every further
    /// candidate lengthens a leaf scan. `b^k` is the number of depth-`k`
    /// cells a size-`k` candidate can hash to. The factor 2 is slack for
    /// skew: items hash by id modulo `b`, so cells fill unevenly (a
    /// frequent item's row is fuller, the cells no ascending itemset
    /// reaches stay empty), and sizing for half-full leaves keeps the
    /// fullest ones near `max_leaf`.
    pub fn fan_out(&self, k: usize, num_candidates: usize) -> usize {
        if self.branching != 0 {
            return self.branching;
        }
        let cells = (2 * num_candidates).div_ceil(self.max_leaf.max(1));
        let exponent = u32::try_from(k).unwrap_or(u32::MAX);
        (MIN_SIZED_BRANCHING..)
            .find(|b| b.checked_pow(exponent).is_none_or(|c| c >= cells))
            .expect("some fan-out reaches any cell count")
    }

    /// [`fan_out`](Self::fan_out), refusing degenerate params (branching
    /// 1, max_leaf 0).
    fn checked_fan_out(&self, k: usize, num_candidates: usize) -> usize {
        assert!(self.max_leaf >= 1, "max_leaf must be at least 1");
        let branching = self.fan_out(k, num_candidates);
        assert!(branching >= 2, "branching must be at least 2");
        branching
    }
}

/// A candidate hash tree for candidates of a fixed size `k`.
///
/// ```
/// use armine_core::counter::CandidateCounter;
/// use armine_core::hashtree::{HashTree, HashTreeParams, OwnershipFilter};
/// use armine_core::{ItemSet, Transaction, Item};
///
/// let mut tree = HashTree::build(2, HashTreeParams::default(), vec![
///     ItemSet::from([1, 2]),
///     ItemSet::from([2, 5]),
/// ]);
/// let t = Transaction::new(1, vec![Item(1), Item(2), Item(3)]);
/// tree.count_all(&[t], &OwnershipFilter::all());
/// assert_eq!(tree.count_of(&ItemSet::from([1, 2])), Some(1));
/// assert_eq!(tree.count_of(&ItemSet::from([2, 5])), Some(0));
/// ```
pub struct HashTree {
    /// The candidates, in row order.
    table: CandidateTable,
    arena: Arena,
    /// Per candidate in leaf order, its row of the table.
    rows: Vec<u32>,
    /// Per candidate in leaf order, the rows of `masks` of its `k` items.
    mask_rows: Vec<u32>,
    /// Item id → rank of the candidate items; a rank's row of `masks` is
    /// its [`ItemIndex::slot`], and row 0 takes every other id.
    index: ItemIndex,
    /// Per ranked item, bit `j` set when the batch's `j`-th transaction
    /// holds it (row 0 takes the bits of items no candidate holds, and no
    /// candidate reads it); all zero between batches.
    masks: Vec<Bits>,
    /// Per leaf, bit `j` set when the batch's `j`-th transaction reached
    /// it; all zero between batches.
    visited: Vec<Bits>,
}

impl HashTree {
    /// Builds the tree over `candidates` (each must have exactly `k`
    /// items, strictly ascending as candidate generation writes them),
    /// with the fan-out [`HashTreeParams::fan_out`] gives.
    ///
    /// # Panics
    /// If `k == 0`, the params are degenerate (branching 1, max_leaf 0),
    /// a candidate does not have exactly `k` items, the candidates are not
    /// strictly ascending (an unsorted or a repeated row), or one holds the
    /// item id `u32::MAX` (the readers stop at [`Item::MAX_ID`](crate::Item::MAX_ID)).
    pub fn build(k: usize, params: HashTreeParams, candidates: Vec<ItemSet>) -> Self {
        Self::from_table(params, CandidateTable::new(k, candidates))
    }

    pub(crate) fn from_table(params: HashTreeParams, table: CandidateTable) -> Self {
        let branching = params.checked_fan_out(table.k, table.len());
        let (arena, rows) = Arena::build(table.k, branching, params.max_leaf, &table.items);
        let (index, ranked) = ItemIndex::distinct(&table.items);
        let mut mask_rows = Vec::with_capacity(table.items.len());
        for &row in &rows {
            let items = table.candidate(row as usize).iter();
            mask_rows.extend(items.map(|&item| index.slot(item) as u32));
        }
        HashTree {
            visited: vec![Bits::default(); arena.num_leaves()],
            table,
            arena,
            rows,
            mask_rows,
            index,
            masks: vec![Bits::default(); ranked.len() + 1],
        }
    }

    /// The hash-table fan-out this tree was built with.
    pub fn branching(&self) -> usize {
        self.arena.branching()
    }

    /// Number of leaf nodes (`L` of the analysis).
    pub fn num_leaves(&self) -> usize {
        self.arena.num_leaves()
    }

    /// Average candidates per non-empty leaf (`S` of the analysis).
    #[cfg(test)]
    fn avg_leaf_occupancy(&self) -> f64 {
        match self.arena.occupied_leaves() {
            0 => 0.0,
            occupied => self.table.len() as f64 / occupied as f64,
        }
    }

    /// Computes, for one transaction, which candidates it contains and
    /// bumps their counts: the `subset(C_k, t)` of Figure 1.
    ///
    /// `filter` prunes starting items at the root (and optionally second
    /// items), implementing IDD's bitmap check. Use
    /// [`OwnershipFilter::all`] for the serial algorithm and CD/DD.
    #[cfg(test)]
    fn subset(&mut self, t: &Transaction, filter: &OwnershipFilter) {
        self.count_batch(std::slice::from_ref(t), filter);
    }

    /// `subset` for up to [`BATCH`] transactions: walks each, then scores
    /// every leaf the batch reached once.
    fn count_batch(&mut self, batch: &[Transaction], filter: &OwnershipFilter) {
        debug_assert!(batch.len() <= BATCH);
        if self.table.len() == 0 {
            return;
        }
        self.table.stats.transactions += batch.len() as u64;
        let k = self.table.k;
        // Bit `j` set when the batch's `j`-th transaction set its masks.
        let mut walked = Bits::default();
        for (j, t) in batch.iter().enumerate() {
            let titems = t.items();
            if titems.len() < k {
                continue;
            }
            // A transaction with no starting item the filter owns reaches
            // no leaf: it sets no mask and hashes nothing.
            let Some(from) = self.arena.first_start(titems, filter) else {
                continue;
            };
            let (word, bit) = bit(j);
            walked[word] |= bit;
            for &item in titems {
                self.masks[self.index.slot(item)][word] |= bit;
            }
            // Items no candidate holds match nothing, but the walk still
            // hashes them: the ledger is the model.
            let visited = &mut self.visited;
            let stats = &mut self.table.stats;
            self.arena.walk(titems, from, filter, stats, |leaf| {
                let seen = &mut visited[leaf][word];
                let first = *seen & bit == 0;
                *seen |= bit;
                first
            });
        }
        self.arena.score(
            &self.rows,
            &self.mask_rows,
            &self.masks,
            &mut self.table.counts,
            &mut self.visited,
        );
        let walked = batch.iter().enumerate().filter(|&(j, _)| {
            let (word, bit) = bit(j);
            walked[word] & bit != 0
        });
        for (_, t) in walked {
            for &item in t.items() {
                self.masks[self.index.slot(item)] = Bits::default();
            }
        }
    }
}

impl CandidateCounter for HashTree {
    fn table(&self) -> &CandidateTable {
        &self.table
    }

    fn table_mut(&mut self) -> &mut CandidateTable {
        &mut self.table
    }

    /// Runs `subset` for every transaction of a slice, 256 (`BATCH`) at a
    /// time.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        for batch in transactions.chunks(BATCH) {
            self.count_batch(batch, filter);
        }
    }
}

/// The hash tree of pass 2 as [`CounterBackend`](crate::counter::CounterBackend)
/// builds it: the direct pair table counts, and the tree keeps only its
/// shape — slots and leaf sizes, no candidate placed — which each
/// transaction walks for the ledger the model prices. The counts and the
/// ledger are the full tree's ([`HashTree::build`] over the same pairs),
/// for every candidate the walk's filter owns.
pub(crate) struct PairTree {
    pairs: PairCounter,
    arena: Arena,
    /// Per leaf, the walked transaction that last reached it, numbered
    /// from 1 by `walked`: the revisit suppression, and all a leaf that is
    /// never scored needs.
    last_visitor: Vec<u64>,
    walked: u64,
}

impl PairTree {
    /// The tree [`HashTree::from_table`] would build over the candidates
    /// of `pairs`, as a shape over them.
    ///
    /// # Panics
    /// If the params are degenerate (branching 1, max_leaf 0).
    pub(crate) fn new(params: HashTreeParams, pairs: PairCounter) -> Self {
        let branching = params.checked_fan_out(2, pairs.num_candidates());
        let arena = Arena::pair_shape(branching, params.max_leaf, &pairs);
        PairTree {
            last_visitor: vec![0; arena.num_leaves()],
            walked: 0,
            pairs,
            arena,
        }
    }
}

impl CandidateCounter for PairTree {
    fn table(&self) -> &CandidateTable {
        self.pairs.table()
    }

    fn table_mut(&mut self) -> &mut CandidateTable {
        self.pairs.table_mut()
    }

    /// Walks the shape for each transaction, as [`HashTree`] does, and
    /// probes the pair table with each transaction the walk starts: one
    /// with no starting item the filter owns holds no owned pair.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        if self.is_empty() {
            return;
        }
        let mut stats = self.stats();
        stats.transactions += transactions.len() as u64;
        for t in transactions {
            let titems = t.items();
            if titems.len() < 2 {
                continue;
            }
            let Some(from) = self.arena.first_start(titems, filter) else {
                continue;
            };
            self.walked += 1;
            let (last_visitor, walked) = (&mut self.last_visitor, self.walked);
            self.arena.walk(titems, from, filter, &mut stats, |leaf| {
                std::mem::replace(&mut last_visitor[leaf], walked) != walked
            });
            self.pairs.probe(titems, filter);
        }
        self.table_mut().stats = stats;
    }

    fn count_of(&self, set: &ItemSet) -> Option<u64> {
        self.pairs.count_of(set)
    }

    fn frequent(&self, min_count: u64) -> Vec<(ItemSet, u64)> {
        self.pairs.frequent(min_count)
    }
}

impl std::fmt::Debug for HashTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashTree")
            .field("k", &self.table.k)
            .field("candidates", &self.table.len())
            .field("branching", &self.branching())
            .field("leaves", &self.num_leaves())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::ItemBitmap;
    use crate::item::Item;
    use crate::transaction::k_subsets;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn tx(ids: &[u32]) -> Transaction {
        Transaction::new(0, ids.iter().map(|&i| Item(i)).collect())
    }

    /// The worked example of Figures 2 and 3: branching 3, the fifteen
    /// 3-candidates of the paper.
    fn paper_tree() -> HashTree {
        let params = HashTreeParams {
            branching: 3,
            max_leaf: 3,
        };
        HashTree::build(3, params, crate::counter::tests::paper_candidates())
    }

    /// Brute-force reference: count subset containment directly.
    fn brute_counts(cands: &[ItemSet], transactions: &[Transaction]) -> Vec<u64> {
        cands
            .iter()
            .map(|c| transactions.iter().filter(|t| t.contains_set(c)).count() as u64)
            .collect()
    }

    crate::counter::tests::run_on! { HashTree:
        paper_example_counts_candidates_in_transaction => paper_example,
        matches_brute_force_on_random_data => brute_force,
        k1_tree_works => brute_force,
        leaf_split_keeps_counts_correct => brute_force,
        count_vector_roundtrip => bookkeeping,
        frequent_filters_by_min_count => bookkeeping,
        #[should_panic(expected = "wrong size")]
        build_rejects_wrong_arity => wrong_size,
        bitmap_filter_skips_non_owned_roots => filters_prune,
        distinct_leaf_visits_are_counted_once_per_transaction => ledger_accrues_and_resets,
        short_transaction_counts_nothing => empty_and_short,
        largest_legal_item_id_is_a_countable_candidate_item => largest_item_id,
        a_page_counts_alike_whole_and_split_at_seeded_points => page_split,
    }

    #[test]
    fn occupancy_and_leaves() {
        let tree = paper_tree();
        assert!(tree.num_leaves() >= 5, "the figure's tree has many leaves");
        let s = tree.avg_leaf_occupancy();
        assert!(s > 0.0 && s <= 3.0, "max_leaf=3 bounds occupancy, got {s}");
    }

    #[test]
    fn empty_tree_subset_is_noop() {
        let mut tree = HashTree::build(3, HashTreeParams::default(), Vec::new());
        tree.subset(&tx(&[1, 2, 3]), &OwnershipFilter::all());
        assert_eq!(tree.stats().transactions, 0);
        assert_eq!(tree.num_leaves(), 1, "empty root leaf");
        assert_eq!(tree.avg_leaf_occupancy(), 0.0);
    }

    /// 400 seeded transactions over 48 items: two of six 7-item patterns
    /// plus three noise items each, so itemsets stay frequent to size 6.
    fn ledger_transactions() -> Vec<Transaction> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(1997);
        let mut ids: Vec<u32> = (0..48).collect();
        let patterns: Vec<Vec<u32>> = (0..6)
            .map(|_| {
                ids.shuffle(&mut rng);
                ids[..7].to_vec()
            })
            .collect();
        (0..400)
            .map(|tid| {
                let mut items = Vec::new();
                for _ in 0..2 {
                    items.extend(&patterns[rng.gen_range(0..patterns.len())]);
                }
                items.extend((0..3).map(|_| rng.gen_range(0..48u32)));
                Transaction::new(tid, items.into_iter().map(Item).collect())
            })
            .collect()
    }

    /// The work ledger, pinned directly: C_2…C_6 of one seeded dataset,
    /// each rank's tree holding what its filter owns, summed over the five
    /// passes. The numbers are the merge-scan kernel's (the commit before
    /// the presence bitmap); the walk the model charges for must not move.
    #[test]
    fn ledger_is_pinned_for_sized_and_pinned_fan_out_under_every_filter() {
        use crate::apriori::{apriori_gen, Apriori, AprioriParams};

        let txs = ledger_transactions();
        let run = Apriori::new(AprioriParams::with_min_support_count(20).max_k(5)).mine(&txs);
        let levels: Vec<Vec<ItemSet>> = (2..=6)
            .map(|k| {
                let prev: Vec<ItemSet> = run
                    .frequent
                    .level(k - 1)
                    .iter()
                    .map(|(set, _)| set.clone())
                    .collect();
                apriori_gen(&prev)
            })
            .collect();
        let sizes: Vec<usize> = levels.iter().map(Vec::len).collect();
        assert_eq!(sizes, [1035, 2982, 7079, 14251, 19765]);

        let first_item =
            OwnershipFilter::first_item(ItemBitmap::from_items(48, (0..48).step_by(2).map(Item)));
        let split_pairs = (1..48)
            .step_by(3)
            .flat_map(|a| (a + 1..48).step_by(2).map(move |b| (Item(a), Item(b))))
            .collect();
        let two_level = OwnershipFilter::two_level(
            ItemBitmap::from_items(48, (0..48).step_by(3).map(Item)),
            split_pairs,
        );
        let sized = HashTreeParams::default();
        let pinned = HashTreeParams {
            branching: 8,
            max_leaf: 16,
        };
        assert_eq!(sized.fan_out(2, sizes[0]), 12, "the sized default widens");

        // [transactions, root_starts, traversal_steps,
        //  distinct_leaf_visits, candidate_checks, Σ counts]
        let cases = [
            (
                "sized/all",
                sized,
                OwnershipFilter::all(),
                [2000u64, 21925, 1798341, 634148, 4059626, 1430990],
            ),
            (
                "sized/first-item",
                sized,
                first_item.clone(),
                [2000, 10585, 849226, 303329, 1942278, 669842],
            ),
            (
                "sized/two-level",
                sized,
                two_level.clone(),
                [2000, 15609, 903106, 353256, 2133558, 856918],
            ),
            (
                "8x16/all",
                pinned,
                OwnershipFilter::all(),
                [2000, 21925, 1798341, 627294, 4146997, 1430990],
            ),
            (
                "8x16/first-item",
                pinned,
                first_item,
                [2000, 10585, 849226, 300632, 1999682, 669842],
            ),
            (
                "8x16/two-level",
                pinned,
                two_level,
                [2000, 15609, 903106, 353327, 2123685, 856918],
            ),
        ];
        for (name, params, filter, want) in cases {
            let mut stats = crate::counter::CounterStats::default();
            let mut hits = 0;
            for (k, level) in (2..).zip(&levels) {
                let owned: Vec<ItemSet> = level
                    .iter()
                    .filter(|c| filter.owns(c.items()))
                    .cloned()
                    .collect();
                let mut tree = HashTree::build(k, params, owned);
                tree.count_all(&txs, &filter);
                stats = stats.merged(&tree.stats());
                hits += tree.count_vector().iter().sum::<u64>();
            }
            let got = [
                stats.transactions,
                stats.root_starts,
                stats.traversal_steps,
                stats.distinct_leaf_visits,
                stats.candidate_checks,
                hits,
            ];
            assert_eq!(got, want, "{name}");
        }
    }

    /// Transaction items above every candidate item have no mask: they
    /// match nothing, but they are hashed and
    /// descended like any other item, so the ledger charges them.
    #[test]
    fn items_above_every_candidate_are_walked_but_match_nothing() {
        let cands: Vec<ItemSet> = k_subsets(&tx(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]), 3);
        let params = HashTreeParams {
            branching: 3,
            max_leaf: 2,
        };
        let low = [tx(&[1, 2, 4, 7, 9]), tx(&[0, 3, 5, 6, 8, 9]), tx(&[9])];
        let high: Vec<Transaction> = low
            .iter()
            .map(|t| {
                let outside = [10, 11, 63, 64, 700, Item::MAX_ID].map(Item);
                Transaction::new(0, t.items().iter().copied().chain(outside).collect())
            })
            .collect();
        let count = |txs: &[Transaction]| {
            let mut tree = HashTree::build(3, params, cands.clone());
            tree.count_all(txs, &OwnershipFilter::all());
            (tree.count_vector(), tree.stats())
        };
        let (low_counts, low_stats) = count(&low);
        let (high_counts, high_stats) = count(&high);
        assert_eq!(low_counts, brute_counts(&cands, &low));
        assert_eq!(high_counts, low_counts);
        assert!(high_stats.root_starts > low_stats.root_starts);
        assert!(high_stats.traversal_steps > low_stats.traversal_steps);
        assert!(high_stats.candidate_checks > low_stats.candidate_checks);
    }

    /// Whether every mask and visit bit is zero, as between any two calls.
    fn is_clean(tree: &HashTree) -> bool {
        let zero = |bits: &Bits| *bits == Bits::default();
        tree.visited.iter().all(zero) && tree.masks.iter().all(zero)
    }

    /// The masks and visit bits are clean between any two calls: `subset`
    /// and `count_all` interleaved over page views of one slab, in pages
    /// on both sides of the 256-transaction batch, count and charge what
    /// one sweep does under every filter, and a page counted twice counts
    /// exactly double.
    #[test]
    fn interleaved_pages_and_recounts_leave_no_residue() {
        let slab = ledger_transactions();
        let cands: Vec<ItemSet> = k_subsets(&slab[0], 4).into_iter().take(300).collect();
        let odd_first = ItemBitmap::from_items(48, (1..48).step_by(2).map(Item));
        let split_pairs = (0..48)
            .step_by(4)
            .flat_map(|a| (a + 1..48).step_by(2).map(move |b| (Item(a), Item(b))))
            .collect();
        let filters = [
            ("all", OwnershipFilter::all()),
            ("first-item", OwnershipFilter::first_item(odd_first.clone())),
            (
                "two-level",
                OwnershipFilter::two_level(odd_first, split_pairs),
            ),
        ];
        for (name, filter) in filters {
            let owned: Vec<ItemSet> = cands
                .iter()
                .filter(|c| filter.owns(c.items()))
                .cloned()
                .collect();
            let build = || HashTree::build(4, HashTreeParams::default(), owned.clone());
            let mut whole = build();
            whole.count_all(&slab, &filter);
            assert_eq!(whole.count_vector(), brute_counts(&owned, &slab), "{name}");
            assert!(whole.count_vector().iter().any(|&c| c > 0), "{name}");
            assert!(is_clean(&whole), "{name}");

            for size in [1, 63, 64, 65, 255, 256, 257] {
                let mut paged = build();
                for (i, page) in slab.chunks(size).enumerate() {
                    if i % 3 == 2 {
                        page.iter().for_each(|t| paged.subset(t, &filter));
                    } else {
                        paged.count_all(page, &filter);
                    }
                    assert!(is_clean(&paged), "{name}, pages of {size}");
                }
                assert_eq!(paged.count_vector(), whole.count_vector(), "{name}, {size}");
                assert_eq!(paged.stats(), whole.stats(), "{name}, pages of {size}");
            }
        }

        let all = OwnershipFilter::all();
        let build = || HashTree::build(4, HashTreeParams::default(), cands.clone());
        let page = &slab[100..165];
        let mut once = build();
        once.count_all(page, &all);
        let mut twice = build();
        twice.count_all(page, &all);
        twice.count_all(page, &all);
        let doubled: Vec<u64> = once.count_vector().iter().map(|c| 2 * c).collect();
        assert_eq!(twice.count_vector(), doubled);
        assert!(doubled.iter().any(|&c| c > 0));
    }

    /// One batch that mixes transactions shorter than `k` (which walk
    /// nothing), empty ones and ones with items above every candidate item
    /// (which have no mask) counts and charges what `subset` does one
    /// transaction at a time, and leaves no mask or visit bit behind.
    #[test]
    fn a_mixed_batch_leaves_no_mask_or_visit_residue() {
        let cands: Vec<ItemSet> = k_subsets(&tx(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]), 3);
        let kinds = [
            tx(&[2, 3]),
            tx(&[4, 700]),
            tx(&[1, 2, 4, 7, 9, 10, 11, 63, 64, 700]),
            tx(&[]),
            tx(&[0, 3, 5, 6, 8, 9]),
            tx(&[9, 10, 11, 12]),
        ];
        let batch: Vec<Transaction> = kinds.iter().cycle().take(70).cloned().collect();
        let params = HashTreeParams {
            branching: 3,
            max_leaf: 2,
        };
        let all = OwnershipFilter::all();
        let mut batched = HashTree::build(3, params, cands.clone());
        batched.count_all(&batch, &all);
        assert!(is_clean(&batched));
        let mut single = HashTree::build(3, params, cands.clone());
        batch.iter().for_each(|t| single.subset(t, &all));
        assert_eq!(batched.count_vector(), brute_counts(&cands, &batch));
        assert_eq!(batched.count_vector(), single.count_vector());
        assert_eq!(batched.stats(), single.stats());
        assert_eq!(batched.stats().transactions, 70);
    }

    impl HashTree {
        /// `count_all` through the reference walk, one transaction at a
        /// time within each batch, none skipped. Returns the most steps
        /// one transaction's walk charged.
        fn count_all_by_reference(&mut self, txs: &[Transaction], filter: &OwnershipFilter) -> u64 {
            let k = self.table.k;
            let mut most_steps = 0;
            for batch in txs.chunks(BATCH) {
                if self.table.len() == 0 {
                    return 0;
                }
                self.table.stats.transactions += batch.len() as u64;
                for (j, t) in batch.iter().enumerate() {
                    let titems = t.items();
                    if titems.len() < k {
                        continue;
                    }
                    let (word, bit) = bit(j);
                    for &item in titems {
                        self.masks[self.index.slot(item)][word] |= bit;
                    }
                    let before = self.table.stats.traversal_steps;
                    arena::ReferenceWalk {
                        arena: &self.arena,
                        visited: &mut self.visited,
                        stats: &mut self.table.stats,
                        titems,
                        k,
                        j,
                        filter,
                    }
                    .run();
                    most_steps = most_steps.max(self.table.stats.traversal_steps - before);
                }
                self.arena.score(
                    &self.rows,
                    &self.mask_rows,
                    &self.masks,
                    &mut self.table.counts,
                    &mut self.visited,
                );
                for t in batch {
                    for &item in t.items() {
                        self.masks[self.index.slot(item)] = Bits::default();
                    }
                }
            }
            most_steps
        }
    }

    /// The walk counts and charges exactly what the recursive walk it
    /// replaced does: seeded trees of k = 1…6 under sized and pinned
    /// fan-outs (down to a root that is a leaf), each holding what its
    /// filter owns, or every candidate, under `all`, `first_item` and
    /// `two_level`, counting pages of 1, 63, 64, 65, 255, 256, 257 and 600
    /// transactions, among them transactions with no owned starting item,
    /// items above every candidate item, and 40 items or more, whose walks
    /// take more steps than `k` chunks hold, so the frontier and the
    /// arrivals are drained mid-walk.
    #[test]
    fn the_walk_charges_and_counts_what_the_reference_walk_does() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(39);
        let universe = 40u32;
        let pages = [1, 63, 64, 65, 255, 256, 257, 600];
        let mut chunked = 0;
        for trial in 0..60 {
            let k = 1 + trial % 6;
            let params = match trial % 4 {
                0 => HashTreeParams::default(),
                1 => HashTreeParams {
                    branching: 3,
                    max_leaf: 2,
                },
                2 => HashTreeParams {
                    branching: rng.gen_range(2..12),
                    max_leaf: rng.gen_range(1..6),
                },
                _ => HashTreeParams {
                    branching: 8,
                    max_leaf: 64,
                },
            };
            let mut cands: Vec<ItemSet> = (0..rng.gen_range(1..400))
                .map(|_| {
                    let mut ids: Vec<u32> = (0..universe).collect();
                    ids.shuffle(&mut rng);
                    set(&ids[..k])
                })
                .collect();
            cands.sort();
            cands.dedup();
            let owned_first = (0..universe).filter(|_| rng.gen_bool(0.4)).map(Item);
            let owned_first = ItemBitmap::from_items(universe, owned_first);
            let split_first: Vec<u32> = (0..universe)
                .filter(|&a| !owned_first.contains(Item(a)) && rng.gen_bool(0.3))
                .collect();
            let split_pairs = split_first
                .into_iter()
                .flat_map(|a| (a + 1..universe).map(move |b| (Item(a), Item(b))))
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            let filters = [
                ("all", OwnershipFilter::all()),
                (
                    "first-item",
                    OwnershipFilter::first_item(owned_first.clone()),
                ),
                (
                    "two-level",
                    OwnershipFilter::two_level(owned_first.clone(), split_pairs),
                ),
            ];
            let txs: Vec<Transaction> = (0..rng.gen_range(1..700))
                .map(|tid| {
                    let mut ids: Vec<u32> = match rng.gen_range(0..64) {
                        // Only starting items nobody here owns.
                        0..=7 => (0..universe)
                            .filter(|&i| !owned_first.contains(Item(i)))
                            .filter(|_| rng.gen_bool(0.3))
                            .collect(),
                        // Items above every candidate item, the largest
                        // legal one among them.
                        8..=15 => (0..rng.gen_range(0..12))
                            .map(|_| rng.gen_range(0..universe + 30))
                            .chain([Item::MAX_ID])
                            .collect(),
                        // Long: every candidate item, and more above.
                        16 => (0..universe + rng.gen_range(0..8u32)).collect(),
                        _ => (0..rng.gen_range(0..16))
                            .map(|_| rng.gen_range(0..universe))
                            .collect(),
                    };
                    ids.sort_unstable();
                    ids.dedup();
                    Transaction::new(tid, ids.into_iter().map(Item).collect())
                })
                .collect();
            for (name, filter) in &filters {
                let owned: Vec<ItemSet> = cands
                    .iter()
                    .filter(|c| filter.owns(c.items()))
                    .cloned()
                    .collect();
                // A tree may also hold candidates its filter does not own,
                // reached through an owned item of the same bucket.
                for (held, candidates) in [("owned", owned), ("every", cands.clone())] {
                    let mut walked = HashTree::build(k, params, candidates.clone());
                    let mut reference = HashTree::build(k, params, candidates);
                    let mut at = 0;
                    while at < txs.len() {
                        let page =
                            &txs[at..txs.len().min(at + pages[rng.gen_range(0..pages.len())])];
                        walked.count_all(page, filter);
                        let most = reference.count_all_by_reference(page, filter);
                        chunked += usize::from(most > (k * arena::CHUNK) as u64);
                        at += page.len();
                    }
                    let on = format!("trial {trial}, k={k}, {params:?}, {name}, {held}");
                    assert_eq!(walked.count_vector(), reference.count_vector(), "{on}");
                    assert_eq!(walked.stats(), reference.stats(), "{on}");
                    assert!(is_clean(&walked), "{on}");
                }
            }
        }
        assert!(chunked > 0, "no walk outgrew its chunks");
    }

    /// The shape of a pass-2 tree, built from hash-cell counts, is the
    /// one `Arena::build` partitions from the same pairs: every slot, and
    /// every leaf's size and place in the leaf order, for seeded random
    /// pair sets and for the shares of `F₁ × F₁` that DD's round-robin
    /// plan and a two-level split cut (sparse rows beside dense ones),
    /// under the sized fan-out, a pinned `8 × 16` and a narrow `3 × 2`,
    /// from a root that is a leaf up to thousands of pairs. The shape is
    /// counted row by row, and both kinds of row reach a full bucket's
    /// node cells.
    #[test]
    fn the_pair_shape_is_the_partitioned_shape() {
        use crate::binpack::{partition_round_robin, partition_two_level};
        use crate::candidates::Candidates;
        use crate::counter::CandidateTable;
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let pinned = HashTreeParams {
            branching: 8,
            max_leaf: 16,
        };
        let narrow = HashTreeParams {
            branching: 3,
            max_leaf: 2,
        };
        let mut pair_sets: Vec<(String, Vec<ItemSet>)> = Vec::new();
        for trial in 0..48 {
            let wanted = match trial % 4 {
                0 => rng.gen_range(0..=16usize),
                1 => rng.gen_range(17..200),
                _ => rng.gen_range(200..6000),
            };
            // Dense enough over its ids that the pair table takes it.
            let universe = rng.gen_range(2..=4 + 2 * (wanted as f64).sqrt() as u32);
            let mut pairs = std::collections::BTreeSet::new();
            for _ in 0..wanted {
                let (a, b) = (rng.gen_range(0..universe), rng.gen_range(0..universe));
                if a != b {
                    pairs.insert(set(&[a.min(b), a.max(b)]));
                }
            }
            pair_sets.push((format!("trial {trial}"), pairs.into_iter().collect()));
        }
        // `F₁ × F₁` over 60 odd items, cut by stride and by a split.
        let c2 = Candidates::pairs((1..120).step_by(2).map(Item).collect());
        let plans = [
            ("round-robin", partition_round_robin(c2.len(), 3)),
            ("two-level", partition_two_level(&c2, 120, &[1.0; 3], 30)),
        ];
        for (name, plan) in &plans {
            for proc in 0..3 {
                let rows = c2.rows(0..c2.len()).enumerate();
                let owned = rows.filter(|(i, row)| plan.owns(proc, *i, row.as_ref()));
                let share = owned.map(|(_, row)| ItemSet::from_sorted(row.as_ref().to_vec()));
                let share = share.collect();
                pair_sets.push((format!("{name} share {proc}"), share));
            }
        }
        let mut seen_root_leaf = false;
        // Rows of each kind in a full root bucket: counted into node cells.
        let (mut dense_in_nodes, mut sparse_in_nodes) = (0, 0);
        for (name, pairs) in pair_sets {
            for params in [HashTreeParams::default(), pinned, narrow] {
                let on = format!("{name}, {} pairs, {params:?}", pairs.len());
                let tree = HashTree::build(2, params, pairs.clone());
                let table = CandidateTable::new(2, pairs.clone());
                let counter = PairCounter::from_rows(&table.items).expect("dense enough to take");
                let shaped = PairTree::new(params, counter);
                assert_eq!(shaped.arena.shape(), tree.arena.shape(), "{on}");
                assert_eq!(shaped.arena.branching(), tree.branching(), "{on}");
                seen_root_leaf |= pairs.len() <= params.max_leaf;

                let b = tree.branching() as u32;
                let bucket = |rank: u32| shaped.pairs.ranked_items()[rank as usize].id() % b;
                let mut sizes = vec![0; b as usize];
                for row in shaped.pairs.rows() {
                    sizes[bucket(row.first) as usize] += row.slots.len();
                }
                let full = |rank| {
                    pairs.len() > params.max_leaf && sizes[bucket(rank) as usize] > params.max_leaf
                };
                for row in shaped.pairs.rows().filter(|row| full(row.first)) {
                    match row.cells {
                        None => dense_in_nodes += 1,
                        Some(_) => sparse_in_nodes += 1,
                    }
                }
            }
        }
        assert!(seen_root_leaf, "no root was a leaf");
        assert!(dense_in_nodes > 0, "no dense row reached a node");
        assert!(sparse_in_nodes > 0, "no sparse row reached a node");
    }

    #[test]
    fn fan_out_follows_the_candidate_count_unless_pinned() {
        let sized = HashTreeParams::default();
        // Small trees keep the historical 8: 8^2 cells hold 512 pairs.
        assert_eq!(sized.fan_out(2, 0), 8);
        assert_eq!(sized.fan_out(2, 512), 8);
        assert_eq!(sized.fan_out(2, 513), 9);
        // T15.I6's pass 2: 171^2 = 29,241 cells for 232,903 pairs.
        assert_eq!(sized.fan_out(2, 232_903), 171);
        // Deeper trees reach the same cell count with less fan-out.
        assert_eq!(sized.fan_out(3, 232_903), 31);
        assert_eq!(sized.fan_out(9, 232_903), 8);
        let pinned = HashTreeParams {
            branching: 3,
            max_leaf: 16,
        };
        assert_eq!(pinned.fan_out(2, 232_903), 3);
        let tree = HashTree::build(2, sized, (0..600).map(|i| set(&[i, i + 1])).collect());
        assert_eq!(tree.branching(), 9);
    }

    /// Section IV holds `S`, the candidates per leaf, constant as `M` grows.
    /// The sized default must too: over uniform random pairs, a hundredfold
    /// `M` leaves both the average leaf occupancy and the candidates checked
    /// per visited leaf where they were (a fixed fan-out of 8 multiplies both
    /// by a hundred).
    #[test]
    fn sized_fan_out_holds_leaf_occupancy_constant() {
        use rand::prelude::*;
        let params = HashTreeParams::default();
        let mut rng = StdRng::seed_from_u64(1997);
        let universe = 1000u32;
        let txs: Vec<Transaction> = (0..200)
            .map(|tid| {
                let items = (0..15).map(|_| Item(rng.gen_range(0..universe))).collect();
                Transaction::new(tid, items)
            })
            .collect();
        let checks_per_visit: Vec<f64> = [1_000usize, 10_000, 100_000]
            .into_iter()
            .map(|m| {
                let mut pairs = std::collections::BTreeSet::new();
                while pairs.len() < m {
                    let (a, b) = (rng.gen_range(0..universe), rng.gen_range(0..universe));
                    if a != b {
                        pairs.insert(ItemSet::from([a.min(b), a.max(b)]));
                    }
                }
                let mut tree = HashTree::build(2, params, pairs.into_iter().collect());
                assert!(
                    tree.avg_leaf_occupancy() <= params.max_leaf as f64,
                    "M = {m}: S = {}",
                    tree.avg_leaf_occupancy()
                );
                tree.count_all(&txs, &OwnershipFilter::all());
                let stats = tree.stats();
                stats.candidate_checks as f64 / stats.distinct_leaf_visits as f64
            })
            .collect();
        for (small, large) in checks_per_visit.iter().zip(&checks_per_visit[1..]) {
            assert!(
                *large <= params.max_leaf as f64 && *large <= 1.25 * small,
                "candidates checked per visited leaf grew with M: {checks_per_visit:?}"
            );
        }
    }
}
