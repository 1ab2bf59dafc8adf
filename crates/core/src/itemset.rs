//! Sorted itemsets: the `C` and `F_k` elements of the Apriori algorithm.

use crate::item::Item;
use std::fmt;

/// An immutable set of items, stored sorted in ascending id order.
///
/// The sort invariant is established at construction and relied on
/// everywhere: subset tests are linear merges, `apriori_gen` joins compare
/// `k-2`-item prefixes positionally, and the hash tree inserts items in
/// order without re-sorting (exactly as the paper notes in Section II).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemSet {
    items: Box<[Item]>,
}

impl ItemSet {
    /// Builds an itemset from arbitrary items, sorting and deduplicating.
    pub fn new(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        ItemSet {
            items: items.into_boxed_slice(),
        }
    }

    /// Builds an itemset from items already in strictly ascending order.
    ///
    /// # Panics
    /// In debug builds, panics if the slice is not strictly ascending.
    pub fn from_sorted(items: Vec<Item>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "ItemSet::from_sorted requires strictly ascending items, got {items:?}"
        );
        ItemSet {
            items: items.into_boxed_slice(),
        }
    }

    /// The empty itemset.
    #[cfg(test)]
    pub(crate) fn empty() -> Self {
        ItemSet {
            items: Box::new([]),
        }
    }

    /// A single-item set.
    pub fn singleton(item: Item) -> Self {
        ItemSet {
            items: vec![item].into_boxed_slice(),
        }
    }

    /// Number of items (the `k` of a size-`k` candidate).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether this is the empty set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items, in ascending order.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The smallest (first) item — the item IDD partitions candidates by.
    #[inline]
    pub fn first(&self) -> Option<Item> {
        self.items.first().copied()
    }

    /// The second item.
    #[cfg(test)]
    pub(crate) fn second(&self) -> Option<Item> {
        self.items.get(1).copied()
    }

    /// The largest (last) item.
    #[inline]
    pub fn last(&self) -> Option<Item> {
        self.items.last().copied()
    }

    /// Whether `item` is a member (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Whether `self ⊆ other`, both sorted: linear merge scan.
    pub(crate) fn is_subset_of_items(&self, other: &[Item]) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut hi = 0;
        'outer: for &needle in self.items.iter() {
            while hi < other.len() {
                match other[hi].cmp(&needle) {
                    std::cmp::Ordering::Less => hi += 1,
                    std::cmp::Ordering::Equal => {
                        hi += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Whether `self ⊆ other`.
    #[cfg(test)]
    pub(crate) fn is_subset_of(&self, other: &ItemSet) -> bool {
        self.is_subset_of_items(other.items())
    }

    /// Set union `self ∪ other`.
    #[cfg(test)]
    pub(crate) fn union(&self, other: &ItemSet) -> ItemSet {
        let mut merged = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (0, 0);
        while a < self.items.len() && b < other.items.len() {
            match self.items[a].cmp(&other.items[b]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.items[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.items[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.items[a]);
                    a += 1;
                    b += 1;
                }
            }
        }
        merged.extend_from_slice(&self.items[a..]);
        merged.extend_from_slice(&other.items[b..]);
        ItemSet::from_sorted(merged)
    }

    /// Set difference `self \ other`.
    #[cfg(test)]
    pub(crate) fn difference(&self, other: &ItemSet) -> ItemSet {
        let kept: Vec<Item> = self
            .items
            .iter()
            .copied()
            .filter(|&i| !other.contains(i))
            .collect();
        ItemSet::from_sorted(kept)
    }

    /// The itemset with item at `pos` removed: the `k` subsets of size
    /// `k-1`, which the `apriori_gen` prune step checks against `F_{k-1}`.
    fn without_index(&self, pos: usize) -> ItemSet {
        let mut items = Vec::with_capacity(self.items.len() - 1);
        items.extend_from_slice(&self.items[..pos]);
        items.extend_from_slice(&self.items[pos + 1..]);
        ItemSet::from_sorted(items)
    }

    /// All `k-1`-sized subsets, in item-removal order.
    pub fn subsets_dropping_one(&self) -> impl Iterator<Item = ItemSet> + '_ {
        (0..self.items.len()).map(move |i| self.without_index(i))
    }
}

/// The items, so that an `ItemSet` and a row of a candidate arena are
/// offered to the counting seam alike.
impl AsRef<[Item]> for ItemSet {
    fn as_ref(&self) -> &[Item] {
        &self.items
    }
}

impl From<Vec<Item>> for ItemSet {
    fn from(items: Vec<Item>) -> Self {
        ItemSet::new(items)
    }
}

impl From<&[u32]> for ItemSet {
    fn from(ids: &[u32]) -> Self {
        ItemSet::new(ids.iter().map(|&id| Item(id)).collect())
    }
}

impl<const N: usize> From<[u32; N]> for ItemSet {
    fn from(ids: [u32; N]) -> Self {
        ItemSet::new(ids.iter().map(|&id| Item(id)).collect())
    }
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<'a> IntoIterator for &'a ItemSet {
    type Item = Item;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Item>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = ItemSet::new(vec![Item(3), Item(1), Item(3), Item(2)]);
        assert_eq!(s.items(), &[Item(1), Item(2), Item(3)]);
    }

    #[test]
    fn accessors() {
        let s = set(&[2, 5, 9]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.first(), Some(Item(2)));
        assert_eq!(s.second(), Some(Item(5)));
        assert_eq!(s.last(), Some(Item(9)));
        assert!(s.contains(Item(5)));
        assert!(!s.contains(Item(4)));
    }

    #[test]
    fn empty_set_accessors() {
        let e = ItemSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.first(), None);
        assert_eq!(e.second(), None);
        assert_eq!(e.last(), None);
    }

    #[test]
    fn subset_relation() {
        let small = set(&[2, 5]);
        let big = set(&[1, 2, 3, 5, 9]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(ItemSet::empty().is_subset_of(&small));
        assert!(small.is_subset_of(&small), "subset is reflexive");
        assert!(!set(&[2, 4]).is_subset_of(&big));
    }

    #[test]
    fn subset_of_raw_items() {
        let s = set(&[1, 6]);
        assert!(s.is_subset_of_items(&[Item(1), Item(2), Item(6)]));
        assert!(!s.is_subset_of_items(&[Item(1), Item(2)]));
        assert!(!s.is_subset_of_items(&[]));
    }

    #[test]
    fn union_and_difference() {
        let a = set(&[1, 3, 5]);
        let b = set(&[2, 3, 6]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 5, 6]));
        assert_eq!(a.difference(&b), set(&[1, 5]));
        assert_eq!(b.difference(&a), set(&[2, 6]));
        assert_eq!(a.union(&ItemSet::empty()), a);
        assert_eq!(a.difference(&a), ItemSet::empty());
    }

    #[test]
    fn without_index_yields_all_k_minus_1_subsets() {
        let s = set(&[1, 2, 3]);
        let subs: Vec<ItemSet> = s.subsets_dropping_one().collect();
        assert_eq!(subs, vec![set(&[2, 3]), set(&[1, 3]), set(&[1, 2])]);
    }

    #[test]
    fn ordering_is_lexicographic() {
        // apriori_gen relies on F_{k-1} being sorted lexicographically so
        // that joinable prefixes are adjacent.
        let mut v = vec![set(&[1, 3]), set(&[1, 2]), set(&[0, 9])];
        v.sort();
        assert_eq!(v, vec![set(&[0, 9]), set(&[1, 2]), set(&[1, 3])]);
    }

    #[test]
    fn display_formats_braces() {
        assert_eq!(set(&[1, 2]).to_string(), "{1, 2}");
        assert_eq!(ItemSet::empty().to_string(), "{}");
    }
}
