//! A vertical (tid-list) index: the independent support-counting oracle
//! the tests cross-validate the horizontal counters against.
//!
//! The horizontal layout (transactions as item lists) is what Apriori and
//! all the parallel formulations scan; the *vertical* layout keeps, per
//! item, the ascending positions of the transactions containing it, and
//! computes σ(C) by intersecting the members' lists. The index shares no
//! code with the counters, which makes it a strong oracle.
//!
//! Test support only: this crate compiles it under `cfg(test)`, and the
//! root package's `tests/properties.rs` includes this file by path for its
//! `apriori_agrees_with_tidlist_index` property.

use super::{Item, ItemSet, Transaction};

/// Per-item ascending transaction-position lists.
pub(crate) struct TidListIndex {
    lists: Vec<Vec<u32>>,
    num_transactions: usize,
}

impl TidListIndex {
    /// Builds the index; transaction ids are positional (index in the
    /// slice), so duplicate `tid()` values are harmless.
    pub(crate) fn build(transactions: &[Transaction]) -> Self {
        let mut lists: Vec<Vec<u32>> = Vec::new();
        for (pos, t) in transactions.iter().enumerate() {
            for item in t.items() {
                if lists.len() <= item.index() {
                    lists.resize(item.index() + 1, Vec::new());
                }
                lists[item.index()].push(pos as u32);
            }
        }
        TidListIndex {
            lists,
            num_transactions: transactions.len(),
        }
    }

    /// Number of indexed transactions.
    pub(crate) fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// The tid-list of one item (empty if the item never occurs).
    pub(crate) fn tids(&self, item: Item) -> &[u32] {
        self.lists.get(item.index()).map_or(&[], Vec::as_slice)
    }

    /// σ(C): the size of the intersection of the members' tid-lists,
    /// smallest list first, stopping the moment the intersection empties.
    pub(crate) fn support(&self, set: &ItemSet) -> u64 {
        let mut lists: Vec<&[u32]> = set.items().iter().map(|&i| self.tids(i)).collect();
        lists.sort_by_key(|l| l.len());
        let Some((first, rest)) = lists.split_first() else {
            return self.num_transactions as u64;
        };
        let mut acc = first.to_vec();
        for list in rest {
            if acc.is_empty() {
                break;
            }
            acc.retain(|t| list.binary_search(t).is_ok());
        }
        acc.len() as u64
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
        assert_eq!(idx.support(&ItemSet::new(Vec::new())), 5);
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
    fn support_matches_horizontal_counting_on_skewed_data() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(23);
        // Skewed data: item 0 is near-universal, high items are rare, so
        // queries mix very unequal list sizes and hit the early exit.
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
        // A singleton query counts its stored list intact.
        assert_eq!(idx.support(&set(&[0])), 500);
    }

    #[test]
    fn empty_database() {
        let idx = TidListIndex::build(&[]);
        assert_eq!(idx.num_transactions(), 0);
        assert_eq!(idx.support(&set(&[1])), 0);
        assert_eq!(idx.support(&ItemSet::new(Vec::new())), 0);
    }
}
