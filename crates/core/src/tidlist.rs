//! A vertical (tid-list) index: the independent support-counting method
//! used to cross-validate the hash-tree pipeline.
//!
//! The horizontal layout (transactions as item lists) is what Apriori and
//! all the parallel formulations scan; the *vertical* layout keeps, per
//! item, the sorted list of transaction ids containing it, and computes
//! σ(C) by intersecting the members' lists. The two representations share
//! no code, which makes the vertical index a strong oracle in tests —
//! and it is also the layout the paper contrasts in Section III-E when
//! citing Zaki et al.'s "entirely different nature" algorithms.

use crate::item::Item;
use crate::itemset::ItemSet;
use crate::transaction::Transaction;

/// Per-item sorted transaction-id lists.
///
/// ```
/// use armine_core::tidlist::TidListIndex;
/// use armine_core::{Transaction, Item, ItemSet};
///
/// let db = vec![
///     Transaction::new(1, vec![Item(0), Item(1)]),
///     Transaction::new(2, vec![Item(1)]),
/// ];
/// let index = TidListIndex::build(&db);
/// assert_eq!(index.support(&ItemSet::from([1])), 2);
/// assert_eq!(index.support(&ItemSet::from([0, 1])), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TidListIndex {
    lists: Vec<Vec<u32>>,
    num_transactions: usize,
}

impl TidListIndex {
    /// Builds the index; transaction ids are positional (index in the
    /// slice), so duplicate `tid()` values are harmless.
    pub fn build(transactions: &[Transaction]) -> Self {
        let num_items = transactions
            .iter()
            .filter_map(|t| t.items().last())
            .map(|i| i.id() + 1)
            .max()
            .unwrap_or(0) as usize;
        let mut lists = vec![Vec::new(); num_items];
        for (pos, t) in transactions.iter().enumerate() {
            for item in t.items() {
                lists[item.index()].push(pos as u32);
            }
        }
        TidListIndex {
            lists,
            num_transactions: transactions.len(),
        }
    }

    /// Number of indexed transactions.
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// The tid-list of one item (empty if the item never occurs).
    pub fn tids(&self, item: Item) -> &[u32] {
        self.lists.get(item.index()).map_or(&[], Vec::as_slice)
    }

    /// σ(C): the size of the intersection of the members' tid-lists.
    pub fn support(&self, set: &ItemSet) -> u64 {
        if set.is_empty() {
            return self.num_transactions as u64;
        }
        self.intersection(set).len() as u64
    }

    /// Intersection of the members' tid-lists, smallest list first so the
    /// working set shrinks as fast as possible, with an early exit the
    /// moment it empties. A singleton query borrows the stored list
    /// instead of copying it — this index is the cross-validation oracle
    /// on multi-million-transaction datasets, where a defensive copy of
    /// the smallest list per query would dominate.
    fn intersection<'a>(&'a self, set: &ItemSet) -> std::borrow::Cow<'a, [u32]> {
        let mut lists: Vec<&[u32]> = set.items().iter().map(|&i| self.tids(i)).collect();
        lists.sort_by_key(|l| l.len());
        let mut acc = std::borrow::Cow::Borrowed(lists[0]);
        for list in &lists[1..] {
            if acc.is_empty() {
                break;
            }
            acc = std::borrow::Cow::Owned(intersect_sorted(&acc, list));
        }
        acc
    }
}

/// Intersection of two ascending id lists (galloping for skewed sizes).
/// Shared with the vertical counting backend, which falls back to sorted
/// tid lists for low-density items instead of materializing near-empty
/// bitmaps.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Gallop when the size ratio is extreme; merge otherwise.
    if large.len() / small.len().max(1) >= 16 {
        let mut out = Vec::with_capacity(small.len());
        let mut lo = 0;
        for &x in small {
            match large[lo..].binary_search(&x) {
                Ok(pos) => {
                    out.push(x);
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= large.len() {
                break;
            }
        }
        out
    } else {
        let mut out = Vec::with_capacity(small.len());
        let (mut i, mut j) = (0, 0);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn table1() -> Vec<Transaction> {
        // Items: Bread=0, Coke=1, Milk=2, Beer=3, Diaper=4.
        vec![
            tx(1, &[0, 1, 2]),
            tx(2, &[3, 0]),
            tx(3, &[3, 1, 4, 2]),
            tx(4, &[3, 0, 4, 2]),
            tx(5, &[1, 4, 2]),
        ]
    }

    #[test]
    fn supports_match_paper_example() {
        let idx = TidListIndex::build(&table1());
        assert_eq!(idx.support(&set(&[4, 2])), 3, "σ(Diaper, Milk)");
        assert_eq!(idx.support(&set(&[4, 2, 3])), 2, "σ(Diaper, Milk, Beer)");
        assert_eq!(idx.support(&set(&[0])), 3);
        assert_eq!(idx.support(&ItemSet::empty()), 5);
    }

    #[test]
    fn unknown_item_has_zero_support() {
        let idx = TidListIndex::build(&table1());
        assert_eq!(idx.support(&set(&[99])), 0);
        assert_eq!(idx.tids(Item(99)), &[] as &[u32]);
    }

    #[test]
    fn matches_horizontal_counting_on_random_data() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        let transactions: Vec<Transaction> = (0..200)
            .map(|tid| {
                let len = rng.gen_range(0..=10);
                Transaction::new(tid, (0..len).map(|_| Item(rng.gen_range(0..30))).collect())
            })
            .collect();
        let idx = TidListIndex::build(&transactions);
        for _ in 0..200 {
            let k = rng.gen_range(1..=4);
            let q = ItemSet::new((0..k).map(|_| Item(rng.gen_range(0..32))).collect());
            let horizontal = transactions.iter().filter(|t| t.contains_set(&q)).count() as u64;
            assert_eq!(idx.support(&q), horizontal, "query {q}");
        }
    }

    #[test]
    fn intersect_handles_galloping_path() {
        // Ratio >= 16 triggers the binary-search path.
        let small = vec![5u32, 100, 900];
        let large: Vec<u32> = (0..1000).collect();
        assert_eq!(intersect_sorted(&small, &large), small);
        let disjoint: Vec<u32> = (1000..2000).collect();
        assert!(intersect_sorted(&small, &disjoint).is_empty());
    }

    #[test]
    fn support_matches_horizontal_counting_on_skewed_data() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(23);
        // Skewed data: item 0 is near-universal, high items are rare, so
        // queries exercise the galloping path and the early exit.
        let transactions: Vec<Transaction> = (0..500)
            .map(|tid| {
                let mut ids: Vec<u32> = vec![0];
                for i in 1..40u32 {
                    if rng.gen_range(0..i + 1) == 0 {
                        ids.push(i);
                    }
                }
                Transaction::new(tid, ids.into_iter().map(Item).collect())
            })
            .collect();
        let idx = TidListIndex::build(&transactions);
        for _ in 0..300 {
            let k = rng.gen_range(1..=4);
            let q = ItemSet::new((0..k).map(|_| Item(rng.gen_range(0..42))).collect());
            let horizontal = transactions.iter().filter(|t| t.contains_set(&q)).count() as u64;
            assert_eq!(idx.support(&q), horizontal, "query {q}");
        }
        // Singleton queries borrow the stored list and count it intact.
        assert_eq!(idx.support(&set(&[0])), 500);
    }

    #[test]
    fn empty_database() {
        let idx = TidListIndex::build(&[]);
        assert_eq!(idx.num_transactions(), 0);
        assert_eq!(idx.support(&set(&[1])), 0);
        assert_eq!(idx.support(&ItemSet::empty()), 0);
    }
}
