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
//! (re-visits are suppressed with an epoch stamp, as the paper describes:
//! "if this node is revisited due to a different candidate from the same
//! transaction, no checking needs to be performed").
//!
//! The tree counts its own work — hash-descents (`t_travers` units),
//! distinct leaf visits (`t_check` units), and per-candidate comparisons —
//! which is what lets the parallel simulator price computation with the
//! paper's cost model, and what regenerates Figure 11 directly.
//!
//! The whole candidate set is known before a pass starts, so the tree is
//! built in bulk and stored flat: the nodes in one arena (see `arena`),
//! the candidates in the seam's [`CandidateTable`], permuted leaf by leaf
//! so a leaf check scans contiguous memory. The shape is exactly the one
//! split-on-overflow insertion grows, so the work ledger for a given
//! `(branching, max_leaf)` does not depend on how the tree is stored.

mod arena;
mod filter;

pub use filter::OwnershipFilter;

use crate::counter::{CandidateCounter, CandidateTable};
use crate::itemset::ItemSet;
use crate::transaction::Transaction;
use arena::{Arena, Walk};

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
/// tree.subset(&Transaction::new(1, vec![Item(1), Item(2), Item(3)]),
///             &OwnershipFilter::all());
/// assert_eq!(tree.count_of(&ItemSet::from([1, 2])), Some(1));
/// assert_eq!(tree.count_of(&ItemSet::from([2, 5])), Some(0));
/// ```
pub struct HashTree {
    /// The candidates, in leaf order.
    table: CandidateTable,
    arena: Arena,
    epoch: u64,
}

impl HashTree {
    /// Builds the tree over `candidates` (each must have exactly `k`
    /// items), with the fan-out [`HashTreeParams::fan_out`] gives.
    ///
    /// # Panics
    /// If `k == 0`, the params are degenerate (branching 1, max_leaf 0),
    /// or a candidate does not have exactly `k` items.
    pub fn build(k: usize, params: HashTreeParams, candidates: Vec<ItemSet>) -> Self {
        Self::from_table(params, CandidateTable::new(k, candidates))
    }

    pub(crate) fn from_table(params: HashTreeParams, mut table: CandidateTable) -> Self {
        assert!(params.max_leaf >= 1, "max_leaf must be at least 1");
        let branching = params.fan_out(table.k, table.len());
        assert!(branching >= 2, "branching must be at least 2");
        let (arena, order) = Arena::build(table.k, branching, params.max_leaf, &table.items);
        table.permute(order);
        HashTree {
            table,
            arena,
            epoch: 0,
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
    pub fn avg_leaf_occupancy(&self) -> f64 {
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
    pub fn subset(&mut self, t: &Transaction, filter: &OwnershipFilter) {
        if self.table.len() == 0 {
            return;
        }
        self.epoch += 1;
        self.table.stats.transactions += 1;
        let titems = t.items();
        if titems.len() < self.table.k {
            return;
        }
        Walk {
            arena: &mut self.arena,
            items: &self.table.items,
            counts: &mut self.table.counts,
            stats: &mut self.table.stats,
            titems,
            k: self.table.k,
            epoch: self.epoch,
            filter,
        }
        .run();
    }
}

impl CandidateCounter for HashTree {
    fn table(&self) -> &CandidateTable {
        &self.table
    }

    fn table_mut(&mut self) -> &mut CandidateTable {
        &mut self.table
    }

    /// Runs `subset` for every transaction of a slice.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        for t in transactions {
            self.subset(t, filter);
        }
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
    use crate::item::Item;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn tx(ids: &[u32]) -> Transaction {
        Transaction::new(0, ids.iter().map(|&i| Item(i)).collect())
    }

    /// The worked example of Figures 2 and 3: branching 3, the fifteen
    /// 3-candidates of the paper, transaction {1 2 3 5 6}.
    fn paper_tree() -> HashTree {
        let cands = [
            [1, 4, 5],
            [1, 2, 4],
            [4, 5, 7],
            [1, 2, 5],
            [4, 5, 8],
            [1, 5, 9],
            [1, 3, 6],
            [2, 3, 4],
            [5, 6, 7],
            [3, 4, 5],
            [3, 5, 6],
            [3, 5, 7],
            [6, 8, 9],
            [3, 6, 7],
            [3, 6, 8],
        ];
        HashTree::build(
            3,
            HashTreeParams {
                branching: 3,
                max_leaf: 3,
            },
            cands.iter().map(|c| set(c)).collect(),
        )
    }

    /// Brute-force reference: count subset containment directly.
    fn brute_counts(cands: &[ItemSet], transactions: &[Transaction]) -> Vec<u64> {
        cands
            .iter()
            .map(|c| transactions.iter().filter(|t| t.contains_set(c)).count() as u64)
            .collect()
    }

    #[test]
    fn paper_example_counts_candidates_in_transaction() {
        let mut tree = paper_tree();
        tree.subset(&tx(&[1, 2, 3, 5, 6]), &OwnershipFilter::all());
        // Candidates contained in {1 2 3 5 6}: {1 2 5}, {1 3 6}, {3 5 6}.
        assert_eq!(tree.count_of(&set(&[1, 2, 5])), Some(1));
        assert_eq!(tree.count_of(&set(&[1, 3, 6])), Some(1));
        assert_eq!(tree.count_of(&set(&[3, 5, 6])), Some(1));
        let total: u64 = tree.count_vector().iter().sum();
        assert_eq!(total, 3, "exactly three candidates are subsets");
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            let k = 2 + trial % 3;
            let num_items = 30u32;
            let mut cands: Vec<ItemSet> = (0..80)
                .map(|_| {
                    let mut ids: Vec<u32> = (0..num_items).collect();
                    ids.shuffle(&mut rng);
                    set(&ids[..k])
                })
                .collect();
            cands.sort();
            cands.dedup();
            let transactions: Vec<Transaction> = (0..60)
                .map(|tid| {
                    let len = rng.gen_range(0..=12);
                    let mut ids: Vec<u32> = (0..num_items).collect();
                    ids.shuffle(&mut rng);
                    Transaction::new(tid, ids[..len].iter().map(|&i| Item(i)).collect())
                })
                .collect();
            let mut tree = HashTree::build(
                k,
                HashTreeParams {
                    branching: 3,
                    max_leaf: 2,
                },
                cands.clone(),
            );
            tree.count_all(&transactions, &OwnershipFilter::all());
            let expected = brute_counts(&cands, &transactions);
            for (c, want) in cands.iter().zip(&expected) {
                assert_eq!(
                    tree.count_of(c),
                    Some(*want),
                    "k={k} candidate {c} miscounted"
                );
            }
        }
    }

    #[test]
    fn leaf_split_keeps_counts_correct() {
        // Force deep splitting with max_leaf=1.
        let cands: Vec<ItemSet> = (0..9)
            .flat_map(|a| (a + 1..10).map(move |b| set(&[a, b])))
            .collect();
        let mut tree = HashTree::build(
            2,
            HashTreeParams {
                branching: 2,
                max_leaf: 1,
            },
            cands.clone(),
        );
        assert_eq!(tree.num_candidates(), 45);
        let t = tx(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        tree.subset(&t, &OwnershipFilter::all());
        for c in &cands {
            assert_eq!(tree.count_of(c), Some(1));
        }
    }

    #[test]
    fn distinct_leaf_visits_are_counted_once_per_transaction() {
        let mut tree = paper_tree();
        tree.subset(&tx(&[1, 2, 3, 5, 6]), &OwnershipFilter::all());
        let stats = tree.stats();
        assert_eq!(stats.transactions, 1);
        assert!(stats.distinct_leaf_visits >= 1);
        assert!(
            stats.distinct_leaf_visits <= tree.num_leaves() as u64,
            "cannot visit more distinct leaves than exist"
        );
        // A second identical transaction doubles the visit count exactly:
        // the epoch stamp resets between transactions.
        let first = stats.distinct_leaf_visits;
        tree.subset(&tx(&[1, 2, 3, 5, 6]), &OwnershipFilter::all());
        assert_eq!(tree.stats().distinct_leaf_visits, 2 * first);
    }

    #[test]
    fn bitmap_filter_skips_non_owned_roots() {
        // Figure 8: processor owns candidates starting with 1, 3, 5 only.
        let mut owned = paper_tree();
        let bitmap = crate::ItemBitmap::from_items(10, [Item(1), Item(3), Item(5)]);
        let filter = OwnershipFilter::first_item(bitmap);
        let t = tx(&[1, 2, 3, 5, 6]);
        owned.subset(&t, &filter);
        // Counting is still correct for owned candidates...
        assert_eq!(owned.count_of(&set(&[1, 2, 5])), Some(1));
        assert_eq!(owned.count_of(&set(&[3, 5, 6])), Some(1));
        // ...and the filtered run does strictly less root work than the
        // unfiltered one.
        let filtered_starts = owned.stats().root_starts;
        let mut unfiltered = paper_tree();
        unfiltered.subset(&t, &OwnershipFilter::all());
        assert!(filtered_starts < unfiltered.stats().root_starts);
    }

    #[test]
    fn count_vector_roundtrip() {
        let mut tree = paper_tree();
        tree.subset(&tx(&[1, 2, 3, 5, 6]), &OwnershipFilter::all());
        let v = tree.count_vector();
        assert_eq!(v.len(), 15);
        let doubled: Vec<u64> = v.iter().map(|c| c * 2).collect();
        tree.set_count_vector(&doubled);
        assert_eq!(tree.count_of(&set(&[1, 2, 5])), Some(2));
    }

    #[test]
    fn frequent_filters_by_min_count() {
        let mut tree = paper_tree();
        for _ in 0..3 {
            tree.subset(&tx(&[1, 2, 3, 5, 6]), &OwnershipFilter::all());
        }
        tree.subset(&tx(&[1, 2, 5]), &OwnershipFilter::all());
        let f = tree.frequent(4);
        assert_eq!(f, vec![(set(&[1, 2, 5]), 4)]);
        let f3 = tree.frequent(3);
        assert_eq!(f3.len(), 3);
    }

    #[test]
    fn short_transaction_counts_nothing() {
        let mut tree = paper_tree();
        tree.subset(&tx(&[1, 2]), &OwnershipFilter::all());
        assert!(tree.count_vector().iter().all(|&c| c == 0));
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

    #[test]
    #[should_panic(expected = "wrong size")]
    fn build_rejects_wrong_arity() {
        HashTree::build(3, HashTreeParams::default(), vec![set(&[1, 2])]);
    }

    #[test]
    fn k1_tree_works() {
        let mut tree = HashTree::build(
            1,
            HashTreeParams {
                branching: 2,
                max_leaf: 1,
            },
            vec![set(&[0]), set(&[1]), set(&[2]), set(&[3])],
        );
        tree.subset(&tx(&[1, 3]), &OwnershipFilter::all());
        assert_eq!(tree.count_of(&set(&[1])), Some(1));
        assert_eq!(tree.count_of(&set(&[0])), Some(0));
        assert_eq!(tree.count_of(&set(&[3])), Some(1));
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
}
