//! Transactions: the `t ∈ T` of the paper.

use crate::item::Item;
use crate::itemset::ItemSet;
use std::fmt;

/// A transaction: a transaction id plus a sorted set of distinct items.
///
/// Like [`ItemSet`], items are kept in ascending order so
/// the hash-tree subset operation can walk the suffix positionally.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    tid: u64,
    items: Box<[Item]>,
}

impl Transaction {
    /// Creates a transaction, sorting and deduplicating its items.
    pub fn new(tid: u64, mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        Transaction {
            tid,
            items: items.into_boxed_slice(),
        }
    }

    /// Creates a transaction from items already strictly ascending.
    pub fn from_sorted(tid: u64, items: Vec<Item>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "Transaction::from_sorted requires strictly ascending items"
        );
        Transaction {
            tid,
            items: items.into_boxed_slice(),
        }
    }

    /// The transaction id.
    #[inline]
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// The items, ascending.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items (`I` in the paper's analysis).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the transaction is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the transaction contains `item`.
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Whether the transaction contains every item of `set` — i.e. whether
    /// it supports the candidate (`C ⊆ t`).
    pub fn contains_set(&self, set: &ItemSet) -> bool {
        set.is_subset_of_items(&self.items)
    }

    /// The number of size-`k` potential candidates this transaction
    /// generates: `C(|t|, k)` — the binomial coefficient the paper calls
    /// `C` in Section IV. Saturates at `u64::MAX`.
    #[cfg(test)]
    fn potential_candidates(&self, k: usize) -> u64 {
        binomial(self.items.len() as u64, k as u64)
    }

    /// Serialized size in bytes when shipped between processors: a u64 tid,
    /// a u32 length, and one u32 per item. This is the figure the
    /// communication cost model charges for data movement.
    pub fn wire_size(&self) -> usize {
        8 + 4 + 4 * self.items.len()
    }

    /// Visits every size-`k` subset of this transaction in lexicographic
    /// order — the *potential candidates* HPA hashes and ships (Section
    /// III-E), and PDM hashes into buckets. Their number is
    /// `(|t| choose k)`, which is exactly why the paper warns that HPA's
    /// communication volume blows up for `k > 2`, so none is held: each
    /// is lent to `visit` in one buffer that the next overwrites. `k = 0`
    /// visits nothing (no pass counts 0-candidates).
    pub fn for_each_k_subset(&self, k: usize, mut visit: impl FnMut(&[Item])) {
        let n = self.items.len();
        if k == 0 || k > n {
            return;
        }
        let mut idx: Vec<usize> = (0..k).collect();
        let mut subset = self.items[..k].to_vec();
        loop {
            visit(&subset);
            // Advance the combination (standard odometer).
            let mut pos = k;
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                if idx[pos] != pos + n - k {
                    break;
                }
            }
            idx[pos] += 1;
            subset[pos] = self.items[idx[pos]];
            for i in pos + 1..k {
                idx[i] = idx[i - 1] + 1;
                subset[i] = self.items[idx[i]];
            }
        }
    }
}

/// Every size-`k` subset of `t`, boxed: the reference the visitor's tests
/// and the counters' tests build candidate sets from.
#[cfg(test)]
pub(crate) fn k_subsets(t: &Transaction, k: usize) -> Vec<ItemSet> {
    let mut out = Vec::new();
    t.for_each_k_subset(k, |s| out.push(ItemSet::from_sorted(s.to_vec())));
    out
}

/// Binomial coefficient with saturation, used for the `C = (I choose k)`
/// term of the analytical model.
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}[", self.tid)?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    #[test]
    fn new_sorts_and_dedups() {
        let t = tx(7, &[5, 1, 5, 3]);
        assert_eq!(t.tid(), 7);
        assert_eq!(t.items(), &[Item(1), Item(3), Item(5)]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn contains_item_and_set() {
        let t = tx(0, &[1, 2, 3, 5, 6]);
        assert!(t.contains(Item(5)));
        assert!(!t.contains(Item(4)));
        assert!(t.contains_set(&ItemSet::from([1, 5, 6])));
        assert!(!t.contains_set(&ItemSet::from([1, 4])));
        assert!(t.contains_set(&ItemSet::empty()));
    }

    #[test]
    fn potential_candidates_is_binomial() {
        let t = tx(0, &[1, 2, 3, 4, 5]);
        assert_eq!(t.potential_candidates(2), 10);
        assert_eq!(t.potential_candidates(3), 10);
        assert_eq!(t.potential_candidates(5), 1);
        assert_eq!(t.potential_candidates(6), 0);
    }

    #[test]
    fn binomial_edge_cases() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(10, 11), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
        // Saturation instead of overflow.
        assert_eq!(binomial(10_000, 5_000), u64::MAX);
    }

    #[test]
    fn wire_size_counts_header_plus_items() {
        assert_eq!(tx(0, &[]).wire_size(), 12);
        assert_eq!(tx(0, &[1, 2, 3]).wire_size(), 12 + 12);
    }

    #[test]
    fn empty_transaction() {
        let t = tx(1, &[]);
        assert!(t.is_empty());
        assert_eq!(t.potential_candidates(1), 0);
        assert!(k_subsets(&t, 1).is_empty());
    }

    #[test]
    fn k_subsets_enumerates_all_combinations() {
        let t = tx(0, &[1, 3, 5, 7]);
        let subs = k_subsets(&t, 2);
        assert_eq!(subs.len(), 6);
        assert_eq!(subs[0], ItemSet::from([1, 3]));
        assert_eq!(subs[5], ItemSet::from([5, 7]));
        // Lexicographic and distinct.
        assert!(subs.windows(2).all(|w| w[0] < w[1]));
        // Count always matches the binomial (k = 0 is defined as empty,
        // not the single empty set — no pass ever counts 0-candidates).
        for k in 1..=5 {
            assert_eq!(k_subsets(&t, k).len() as u64, t.potential_candidates(k));
        }
        // For |t| up to 12 and every k through |t| + 1: exactly the k-sets
        // of a bit mask over the items, in lexicographic order, and as
        // many as the binomial says.
        for n in 0..=12u32 {
            let t = tx(0, &(0..n).map(|i| 3 * i + i % 2).collect::<Vec<_>>());
            for k in 0..=n as usize + 1 {
                let mut want: Vec<ItemSet> = (1u32..1 << n)
                    .filter(|mask| mask.count_ones() as usize == k)
                    .map(|mask| {
                        let bits = (0..t.len()).filter(|b| mask & (1 << b) != 0);
                        ItemSet::from_sorted(bits.map(|b| t.items()[b]).collect())
                    })
                    .collect();
                want.sort();
                let got = k_subsets(&t, k);
                assert_eq!(got, want, "|t| = {n}, k = {k}");
                if k > 0 {
                    assert_eq!(got.len() as u64, t.potential_candidates(k));
                }
            }
        }
    }

    #[test]
    fn k_subsets_full_and_overflow() {
        let t = tx(0, &[2, 4]);
        assert_eq!(k_subsets(&t, 2), vec![ItemSet::from([2, 4])]);
        assert!(k_subsets(&t, 3).is_empty());
        assert!(k_subsets(&t, 0).is_empty());
    }
}
