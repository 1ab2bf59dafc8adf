//! Ownership filters: the bitmap pruning of IDD (Section III-C).
//!
//! A processor running IDD owns only the candidates whose first item falls
//! in its partition, keeps those first items in a bitmap, and — at the root
//! of the hash tree — skips every starting item of a transaction that the
//! bitmap rejects. The two-level variant additionally filters by second
//! item for first items whose candidate population was too large for a
//! single processor (the paper's refinement for skewed first items).

use crate::bitmap::ItemBitmap;
use crate::item::Item;
use std::collections::HashSet;

/// Root-level (and optionally second-level) pruning for the subset walk.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnershipFilter {
    mode: Mode,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    /// No pruning: the serial algorithm, CD, and DD.
    All,
    /// Prune starting items not in the bitmap: plain IDD.
    FirstItem(ItemBitmap),
    /// Like `FirstItem`, but some first items are *split*: for those, only
    /// specific (first, second) pairs are owned.
    TwoLevel {
        /// First items owned outright.
        owned_first: ItemBitmap,
        /// First items owned only for certain second items.
        split_first: ItemBitmap,
        /// The owned (first, second) pairs for split first items.
        owned_pairs: HashSet<(Item, Item)>,
    },
}

impl OwnershipFilter {
    /// A filter that allows everything.
    pub fn all() -> Self {
        OwnershipFilter { mode: Mode::All }
    }

    /// A first-item bitmap filter (IDD).
    pub(crate) fn first_item(bitmap: ItemBitmap) -> Self {
        OwnershipFilter {
            mode: Mode::FirstItem(bitmap),
        }
    }

    /// A two-level filter: `owned_first` items are owned outright;
    /// `owned_pairs` enumerates the (first, second) combinations owned for
    /// first items that were split across processors.
    pub(crate) fn two_level(owned_first: ItemBitmap, owned_pairs: HashSet<(Item, Item)>) -> Self {
        let num_items = owned_first.num_items();
        let mut split_first = ItemBitmap::new(num_items);
        for &(first, _) in &owned_pairs {
            split_first.insert(first);
        }
        OwnershipFilter {
            mode: Mode::TwoLevel {
                owned_first,
                split_first,
                owned_pairs,
            },
        }
    }

    /// Whether a candidate path may *start* with `item` at the tree root.
    #[inline]
    pub(crate) fn allows_root(&self, item: Item) -> bool {
        match &self.mode {
            Mode::All => true,
            Mode::FirstItem(bm) => bm.contains(item),
            Mode::TwoLevel {
                owned_first,
                split_first,
                ..
            } => owned_first.contains(item) || split_first.contains(item),
        }
    }

    /// Whether a path that started with `first` may continue with `second`
    /// at depth 1. Always true except for split first items in two-level
    /// mode.
    #[inline]
    pub(crate) fn allows_second(&self, first: Item, second: Item) -> bool {
        match &self.mode {
            Mode::All | Mode::FirstItem(_) => true,
            Mode::TwoLevel {
                owned_first,
                owned_pairs,
                ..
            } => owned_first.contains(first) || owned_pairs.contains(&(first, second)),
        }
    }

    /// Whether the processor holding this filter owns `candidate`: the
    /// subset walk can only reach it through a root item (and, for a split
    /// first item, a second item) the filter admits — so this is also the
    /// membership predicate of that processor's candidate share.
    pub fn owns(&self, candidate: &[Item]) -> bool {
        candidate.first().is_some_and(|&first| {
            self.allows_root(first)
                && candidate
                    .get(1)
                    .is_none_or(|&second| self.allows_second(first, second))
        })
    }

    /// Whether this filter owns every candidate starting with `first`
    /// (`Some(true)`), none of them (`Some(false)`), or some, to be asked
    /// by [`owns`](Self::owns) (`None`: a split first item).
    pub(crate) fn owns_from(&self, first: Item) -> Option<bool> {
        match &self.mode {
            Mode::All => Some(true),
            Mode::FirstItem(bm) => Some(bm.contains(first)),
            Mode::TwoLevel {
                owned_first,
                split_first,
                ..
            } => match (owned_first.contains(first), split_first.contains(first)) {
                (true, _) => Some(true),
                (false, true) => None,
                (false, false) => Some(false),
            },
        }
    }

    /// Whether this filter prunes second items: two-level mode.
    pub(crate) fn prunes_second(&self) -> bool {
        matches!(self.mode, Mode::TwoLevel { .. })
    }

    /// Whether this filter prunes anything at all.
    pub(crate) fn is_all(&self) -> bool {
        matches!(self.mode, Mode::All)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::ItemSet;

    #[test]
    fn all_allows_everything() {
        let f = OwnershipFilter::all();
        assert!(f.is_all());
        assert!(f.allows_root(Item(0)));
        assert!(f.allows_second(Item(0), Item(1)));
    }

    #[test]
    fn first_item_filters_roots_only() {
        let f = OwnershipFilter::first_item(ItemBitmap::from_items(10, [Item(2), Item(5)]));
        assert!(!f.is_all());
        assert!(f.allows_root(Item(2)));
        assert!(!f.allows_root(Item(3)));
        // Second items are never filtered in single-level mode.
        assert!(f.allows_second(Item(2), Item(9)));
    }

    #[test]
    fn two_level_owns_outright_and_by_pair() {
        let owned_first = ItemBitmap::from_items(10, [Item(1)]);
        let pairs: HashSet<(Item, Item)> = [(Item(4), Item(5)), (Item(4), Item(7))]
            .into_iter()
            .collect();
        let f = OwnershipFilter::two_level(owned_first, pairs);
        // Item 1 is owned outright: all seconds pass.
        assert!(f.allows_root(Item(1)));
        assert!(f.allows_second(Item(1), Item(9)));
        // Item 4 is split: only listed seconds pass.
        assert!(f.allows_root(Item(4)));
        assert!(f.allows_second(Item(4), Item(5)));
        assert!(!f.allows_second(Item(4), Item(6)));
        // Item 3 is not owned at all.
        assert!(!f.allows_root(Item(3)));
        // `owns` is both levels at once.
        let owns = |ids: &[u32]| f.owns(ItemSet::from(ids).items());
        assert!(owns(&[1, 9]));
        assert!(owns(&[4, 7, 8]));
        assert!(!owns(&[4, 6]));
        assert!(!owns(&[3, 4]));
        assert!(owns(&[4]), "no second item to reject");
    }
}
