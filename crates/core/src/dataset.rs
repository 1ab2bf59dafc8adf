//! A transaction database with summary statistics and partitioning helpers.

use crate::item::{Item, ItemInterner};
use crate::itemset::ItemSet;
use crate::transaction::Transaction;
use std::sync::Arc;

/// A horizontal transaction database (`T` in the paper), optionally with an
/// item-name interner for human-readable examples.
///
/// Parallel algorithms assume the transactions are evenly distributed among
/// processors (Section III); [`Dataset::partition`] produces that
/// distribution. The transactions live in one shared allocation
/// ([`Dataset::shared_transactions`]): a parallel run's ranks view ranges
/// of it, and cloning a `Dataset` copies no transaction.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    transactions: Arc<Vec<Transaction>>,
    interner: Option<ItemInterner>,
    num_items: u32,
}

impl Dataset {
    /// Builds a dataset from transactions; `num_items` is inferred as
    /// `max item id + 1`.
    ///
    /// # Panics
    /// If an item id is `u32::MAX`, which leaves no `u32` universe size
    /// (the readers in [`crate::io`] refuse ids above [`Item::MAX_ID`]
    /// long before that).
    pub fn new(transactions: Vec<Transaction>) -> Self {
        let max_id = transactions
            .iter()
            .filter_map(|t| t.items().last())
            .map(|i| i.id())
            .max();
        let num_items = max_id.map_or(0, |id| {
            id.checked_add(1)
                .expect("item id u32::MAX leaves no room for the universe size")
        });
        Dataset {
            transactions: Arc::new(transactions),
            interner: None,
            num_items,
        }
    }

    /// Builds a dataset from transactions with an explicit item universe
    /// size (`|I|`), which may exceed the largest id actually occurring.
    pub fn with_num_items(transactions: Vec<Transaction>, num_items: u32) -> Self {
        debug_assert!(
            transactions
                .iter()
                .all(|t| t.items().last().is_none_or(|i| i.id() < num_items)),
            "transaction item exceeds declared universe"
        );
        Dataset {
            transactions: Arc::new(transactions),
            interner: None,
            num_items,
        }
    }

    /// Builds a dataset from named transactions, interning item names.
    /// Transaction ids are assigned 1-based in order, matching Table I.
    pub fn from_named_transactions(named: &[&[&str]]) -> Self {
        let mut interner = ItemInterner::new();
        let transactions = named
            .iter()
            .enumerate()
            .map(|(i, names)| {
                let items = names.iter().map(|n| interner.intern(n)).collect();
                Transaction::new(i as u64 + 1, items)
            })
            .collect();
        let num_items = interner.len() as u32;
        Dataset {
            transactions: Arc::new(transactions),
            interner: Some(interner),
            num_items,
        }
    }

    /// The transactions.
    #[inline]
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// The transactions' one allocation, shared: wrapping the `Vec` moved
    /// only its header, and the parallel miner places its ranks on ranges
    /// of it by cut points instead of copying it.
    #[inline]
    pub fn shared_transactions(&self) -> &Arc<Vec<Transaction>> {
        &self.transactions
    }

    /// Number of transactions (`N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the database is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Size of the item universe (`|I|`): valid ids are `0..num_items`.
    #[inline]
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// The item-name interner, present when built from named transactions.
    pub fn interner(&self) -> Option<&ItemInterner> {
        self.interner.as_ref()
    }

    /// Resolves named items into an [`ItemSet`]; `None` if any name is
    /// unknown or the dataset has no interner.
    pub fn itemset(&self, names: &[&str]) -> Option<ItemSet> {
        let interner = self.interner.as_ref()?;
        let items: Option<Vec<Item>> = names.iter().map(|n| interner.get(n)).collect();
        Some(ItemSet::new(items?))
    }

    /// Support count of `set`: the number of transactions containing it —
    /// σ(C) of Section II, computed by brute force. The mining algorithms
    /// never call this (they use the hash tree); it exists as the ground
    /// truth for tests and examples.
    pub fn support_count(&self, set: &ItemSet) -> u64 {
        self.transactions
            .iter()
            .filter(|t| t.contains_set(set))
            .count() as u64
    }

    /// Average transaction length (`I` of the analysis; `|T|`=15 for the
    /// paper's synthetic data).
    pub fn avg_transaction_len(&self) -> f64 {
        if self.transactions.is_empty() {
            return 0.0;
        }
        let total: usize = self.transactions.iter().map(Transaction::len).sum();
        total as f64 / self.transactions.len() as f64
    }

    /// Total bytes when shipped on the wire, used by the cost model for
    /// whole-database movement estimates.
    pub fn wire_size(&self) -> usize {
        self.transactions.iter().map(Transaction::wire_size).sum()
    }

    /// Cut points of [`Dataset::partition`]: part `i` is `bounds[i]..bounds[i + 1]`
    /// and the first `len() % p` parts are one transaction longer. The
    /// parallel miner views these ranges of [`Dataset::shared_transactions`]
    /// instead of copying them.
    pub fn partition_bounds(&self, p: usize) -> Vec<usize> {
        assert!(p > 0, "cannot partition into zero parts");
        let (base, extra) = (self.len() / p, self.len() % p);
        (0..=p).map(|i| i * base + i.min(extra)).collect()
    }

    /// Splits the database into `p` contiguous, maximally even parts: part
    /// sizes differ by at most one. This is the even distribution of
    /// transactions among processors that Section III assumes.
    pub fn partition(&self, p: usize) -> Vec<Vec<Transaction>> {
        let bounds = self.partition_bounds(p);
        let parts = bounds.windows(2);
        parts
            .map(|w| self.transactions[w[0]..w[1]].to_vec())
            .collect()
    }

    /// Per-item occurrence counts over the whole database — the first pass
    /// of Apriori (`F_1` computation) and the input to the IDD bin-packing
    /// partitioner's first-item statistics.
    pub(crate) fn item_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_items as usize];
        for t in self.transactions.iter() {
            for item in t.items() {
                counts[item.index()] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    fn table1() -> Dataset {
        Dataset::from_named_transactions(&[
            &["Bread", "Coke", "Milk"],
            &["Beer", "Bread"],
            &["Beer", "Coke", "Diaper", "Milk"],
            &["Beer", "Bread", "Diaper", "Milk"],
            &["Coke", "Diaper", "Milk"],
        ])
    }

    #[test]
    fn table1_supports_match_the_paper() {
        let d = table1();
        // σ(Diaper, Milk) = 3 and σ(Diaper, Milk, Beer) = 2 (Section II).
        let dm = d.itemset(&["Diaper", "Milk"]).unwrap();
        let dmb = d.itemset(&["Diaper", "Milk", "Beer"]).unwrap();
        assert_eq!(d.support_count(&dm), 3);
        assert_eq!(d.support_count(&dmb), 2);
    }

    #[test]
    fn num_items_inferred() {
        let d = Dataset::new(vec![tx(1, &[0, 4]), tx(2, &[2])]);
        assert_eq!(d.num_items(), 5);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn with_num_items_overrides() {
        let d = Dataset::with_num_items(vec![tx(1, &[0, 4])], 100);
        assert_eq!(d.num_items(), 100);
    }

    #[test]
    fn itemset_resolution_fails_on_unknown_name() {
        let d = table1();
        assert!(d.itemset(&["Diaper", "Caviar"]).is_none());
        let plain = Dataset::new(vec![tx(1, &[0])]);
        assert!(plain.itemset(&["Bread"]).is_none(), "no interner");
    }

    #[test]
    fn partition_is_even_and_complete() {
        let d = Dataset::new((0..10).map(|i| tx(i, &[i as u32])).collect());
        let parts = d.partition(3);
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 10);
        // Order preserved, no duplication.
        let flat: Vec<u64> = parts.iter().flatten().map(Transaction::tid).collect();
        assert_eq!(flat, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn partition_more_parts_than_transactions() {
        let d = Dataset::new(vec![tx(0, &[1]), tx(1, &[2])]);
        let parts = d.partition(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().filter(|p| p.is_empty()).count(), 2);
    }

    /// One split rule: `partition` is `partition_bounds` sliced, for `p`
    /// below, at and above the transaction count.
    #[test]
    fn partition_copies_the_ranges_partition_bounds_cuts() {
        let d = Dataset::new((0..7).map(|i| tx(i, &[i as u32])).collect());
        for p in [1, 2, 3, 6, 7, 8, 20] {
            let bounds = d.partition_bounds(p);
            assert_eq!((bounds.len(), bounds[0], bounds[p]), (p + 1, 0, 7), "p={p}");
            let sliced: Vec<&[Transaction]> = bounds
                .windows(2)
                .map(|w| &d.transactions()[w[0]..w[1]])
                .collect();
            assert_eq!(d.partition(p), sliced, "p={p}");
            // The first `n % p` parts are the longer ones.
            let sizes: Vec<usize> = sliced.iter().map(|s| s.len()).collect();
            let want: Vec<usize> = (0..p).map(|i| 7 / p + usize::from(i < 7 % p)).collect();
            assert_eq!(sizes, want, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn partition_zero_panics() {
        Dataset::new(vec![]).partition(0);
    }

    #[test]
    fn item_counts_accumulate() {
        let d = Dataset::new(vec![tx(1, &[0, 1]), tx(2, &[1, 2]), tx(3, &[1])]);
        assert_eq!(d.item_counts(), vec![1, 3, 1]);
    }

    #[test]
    fn avg_transaction_len() {
        let d = Dataset::new(vec![tx(1, &[0, 1]), tx(2, &[0, 1, 2, 3])]);
        assert!((d.avg_transaction_len() - 3.0).abs() < 1e-12);
        assert_eq!(Dataset::new(vec![]).avg_transaction_len(), 0.0);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.num_items(), 0);
        assert_eq!(d.item_counts(), Vec::<u64>::new());
    }
}
