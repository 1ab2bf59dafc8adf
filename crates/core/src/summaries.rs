//! Condensed representations of a frequent-itemset lattice: maximal and
//! closed frequent itemsets.
//!
//! The full lattice `∪F_k` is often enormous (dense workloads make
//! `|F_k| ≈ |C_k|` for many passes); two standard lossless/lossy
//! summaries tame it:
//!
//! - a frequent itemset is **maximal** if no proper superset is frequent
//!   (lossy: counts of non-maximal sets are not recoverable);
//! - it is **closed** if no proper superset has the *same* support count
//!   (lossless: every frequent itemset's count equals the count of its
//!   smallest closed superset).

use crate::apriori::FrequentItemsets;
use crate::itemset::ItemSet;

/// Extracts the maximal frequent itemsets, lexicographically ordered
/// within each size, larger sizes last.
///
/// ```
/// use armine_core::apriori::{Apriori, AprioriParams};
/// use armine_core::summaries::maximal_itemsets;
/// use armine_core::{Transaction, Item, ItemSet};
///
/// let db: Vec<Transaction> = (0..3)
///     .map(|t| Transaction::new(t, vec![Item(1), Item(2), Item(3)]))
///     .collect();
/// let run = Apriori::new(AprioriParams::with_min_support_count(3)).mine(&db);
/// // 7 frequent itemsets, but a single maximal one: {1, 2, 3}.
/// assert_eq!(run.frequent.len(), 7);
/// let maximal = maximal_itemsets(&run.frequent);
/// assert_eq!(maximal, vec![(ItemSet::from([1, 2, 3]), 3)]);
/// ```
pub fn maximal_itemsets(frequent: &FrequentItemsets) -> Vec<(ItemSet, u64)> {
    // A set is maximal iff it extends into no frequent superset.
    // Supersets of size+1 suffice: anti-monotonicity means any larger
    // frequent superset implies one at size+1.
    uncovered(frequent, false)
}

/// Extracts the closed frequent itemsets (no proper superset with equal
/// support), lexicographically ordered within each size.
pub fn closed_itemsets(frequent: &FrequentItemsets) -> Vec<(ItemSet, u64)> {
    // Any superset has support ≤ count; equality at size+1 decides
    // closedness (a larger equal-support superset implies an equal-support
    // one at size+1 by anti-monotonicity).
    uncovered(frequent, true)
}

/// The sets of every `F_k` that no set of `F_{k+1}` covers (contains, with
/// an equal count if `same_count`). Each `(k+1)`-set marks its `k`-subsets
/// by lookup, so a level costs `(k+1)·|F_{k+1}|` searches.
fn uncovered(frequent: &FrequentItemsets, same_count: bool) -> Vec<(ItemSet, u64)> {
    let mut out = Vec::new();
    for size in 1..=frequent.max_len() {
        let level = frequent.level(size);
        let mut covered = vec![false; level.len()];
        for (sup, sup_count) in frequent.level(size + 1) {
            for subset in sup.subsets_dropping_one() {
                if let Some(at) = frequent.position(subset.items()) {
                    covered[at] |= !same_count || level[at].1 == *sup_count;
                }
            }
        }
        let kept = level.iter().zip(covered).filter(|(_, covered)| !covered);
        out.extend(kept.map(|(entry, _)| entry.clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{Apriori, AprioriParams};
    use crate::dataset::Dataset;

    /// Recovers the support of an arbitrary frequent itemset from the closed
    /// summary: the count of its smallest superset among the closed sets
    /// (`None` if the set is not frequent at all).
    fn support_from_closed(closed: &[(ItemSet, u64)], query: &ItemSet) -> Option<u64> {
        closed
            .iter()
            .filter(|(c, _)| query.is_subset_of(c))
            .map(|(_, count)| *count)
            .max()
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

    fn mined(min_count: u64) -> FrequentItemsets {
        Apriori::new(AprioriParams::with_min_support_count(min_count))
            .mine(table1().transactions())
            .frequent
    }

    #[test]
    fn maximal_sets_have_no_frequent_supersets() {
        let f = mined(2);
        let maximal = maximal_itemsets(&f);
        assert!(!maximal.is_empty());
        for (m, _) in &maximal {
            for (other, _) in f.iter() {
                if m.is_subset_of(other) && m != other {
                    panic!("{m} has frequent superset {other}");
                }
            }
        }
        // Every frequent set is under some maximal set.
        for (s, _) in f.iter() {
            assert!(
                maximal.iter().any(|(m, _)| s.is_subset_of(m)),
                "{s} not covered"
            );
        }
        // Maximal is a (strict, here) subset of the lattice.
        assert!(maximal.len() < f.len());
    }

    #[test]
    fn closed_summary_is_lossless() {
        let f = mined(2);
        let closed = closed_itemsets(&f);
        // Every frequent itemset's support is recoverable.
        for (s, count) in f.iter() {
            assert_eq!(
                support_from_closed(&closed, s),
                Some(count),
                "support of {s} lost"
            );
        }
        // And closed ⊆ frequent with matching counts.
        for (c, count) in &closed {
            assert_eq!(f.support(c), Some(*count));
        }
    }

    #[test]
    fn maximal_subset_of_closed() {
        // Every maximal itemset is closed (strict superset would be
        // frequent, contradiction).
        let f = mined(2);
        let closed: std::collections::HashSet<ItemSet> =
            closed_itemsets(&f).into_iter().map(|(s, _)| s).collect();
        for (m, _) in maximal_itemsets(&f) {
            assert!(closed.contains(&m), "maximal {m} not closed");
        }
    }

    /// The definition the summaries used to run: each set of `F_k` scans
    /// all of `F_{k+1}` for a covering superset.
    fn by_scan(frequent: &FrequentItemsets, same_count: bool) -> Vec<(ItemSet, u64)> {
        let mut out = Vec::new();
        for size in 1..=frequent.max_len() {
            let supersets = frequent.level(size + 1);
            for (set, count) in frequent.level(size) {
                let covered = supersets
                    .iter()
                    .any(|(sup, sc)| (!same_count || sc == count) && set.is_subset_of(sup));
                if !covered {
                    out.push((set.clone(), *count));
                }
            }
        }
        out
    }

    #[test]
    fn summaries_are_the_scan_definition_on_seeded_lattices() {
        use crate::item::Item;
        use crate::transaction::Transaction;
        use rand::prelude::*;
        let mut closed_differs = false;
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let transactions: Vec<Transaction> = (0..60)
                .map(|tid| {
                    let items = (0..12).filter(|_| rng.gen_bool(0.45)).map(Item).collect();
                    Transaction::new(tid, items)
                })
                .collect();
            for (min_count, max_k) in [(2, 3), (3, 99), (6, 99), (12, 99)] {
                let params = AprioriParams::with_min_support_count(min_count).max_k(max_k);
                let f = Apriori::new(params).mine(&transactions).frequent;
                let on = format!("seed {seed}, min count {min_count}, max k {max_k}");
                let (maximal, closed) = (maximal_itemsets(&f), closed_itemsets(&f));
                assert_eq!(maximal, by_scan(&f, false), "{on}");
                assert_eq!(closed, by_scan(&f, true), "{on}");
                assert!(maximal.len() < f.len(), "{on}: nothing to cover");
                closed_differs |= closed != maximal;
            }
        }
        assert!(closed_differs, "no lattice tells closed from maximal");
    }

    #[test]
    fn singleton_lattice() {
        let f = mined(4); // only {Milk} has support 4.
        let maximal = maximal_itemsets(&f);
        let closed = closed_itemsets(&f);
        assert_eq!(maximal, closed);
        assert_eq!(maximal.len(), f.len());
    }

    #[test]
    fn empty_lattice() {
        let f = mined(100);
        assert!(maximal_itemsets(&f).is_empty());
        assert!(closed_itemsets(&f).is_empty());
        assert_eq!(support_from_closed(&[], &ItemSet::from([1])), None);
    }

    #[test]
    fn support_from_closed_rejects_infrequent() {
        let f = mined(3);
        let closed = closed_itemsets(&f);
        let d = table1();
        let infrequent = d.itemset(&["Beer", "Coke"]).unwrap(); // σ = 1 < 3
        assert_eq!(support_from_closed(&closed, &infrequent), None);
    }
}
