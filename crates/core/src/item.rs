//! The atomic unit of the data model: an item.
//!
//! Items are dense small integers (`u32`), which is how both the IBM Quest
//! generator and every serious Apriori implementation represent them: the
//! candidate hash tree hashes on the integer value, and the IDD bitmap
//! filter indexes a bit vector by it.

use std::fmt;

/// A single item, identified by a dense non-negative integer id.
///
/// Items are `Copy`, 4 bytes, and totally ordered by id. Itemsets and
/// transactions always store their items in ascending id order, which is
/// what makes the `apriori_gen` join and the hash-tree subset recursion
/// linear-time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Item(pub u32);

impl Item {
    /// The largest item id the dataset readers accept: `2^27 − 1`. Pass 1
    /// counts items in a dense `u64` vector indexed by id, so this caps
    /// that vector at 1 GiB; real FIMI datasets top out near 5.3 M items.
    pub const MAX_ID: u32 = (1 << 27) - 1;

    /// Creates an item from its raw id.
    #[inline]
    pub const fn new(id: u32) -> Self {
        Item(id)
    }

    /// The raw integer id.
    #[inline]
    pub const fn id(self) -> u32 {
        self.0
    }

    /// Index into dense per-item arrays (bitmaps, count tables).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Item {
    #[inline]
    fn from(id: u32) -> Self {
        Item(id)
    }
}

impl From<Item> for u32 {
    #[inline]
    fn from(item: Item) -> Self {
        item.0
    }
}

impl fmt::Debug for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Item id → dense rank over one counter's candidate items: how every
/// counting structure finds a transaction's items, in one load per item.
///
/// It holds one `u32` per id up to the largest indexed item: the item's
/// rank plus one, or 0 for an id no candidate holds. The vector is
/// allocated zeroed, so only the pages of indexed ids are ever written:
/// an index reaching [`Item::MAX_ID`] reserves 512 MiB of address space
/// and touches a page or two of it. An id past the last indexed one reads
/// as 0 too.
#[derive(Debug, Clone, Default)]
pub(crate) struct ItemIndex {
    slots: Vec<u32>,
}

impl ItemIndex {
    /// The index of the `(item, rank)` pairs `ranked` yields (read twice;
    /// each item once, every rank below `u32::MAX`).
    ///
    /// # Panics
    /// If an item's id is `u32::MAX`, which leaves no room for the index
    /// (the readers stop at [`Item::MAX_ID`]).
    pub(crate) fn from_ranked(ranked: impl Iterator<Item = (Item, u32)> + Clone) -> ItemIndex {
        let largest = ranked.clone().map(|(item, _)| item).max();
        let mut slots = vec![0u32; largest.map_or(0, Self::span)];
        for (item, rank) in ranked {
            slots[item.index()] = rank + 1;
        }
        ItemIndex { slots }
    }

    /// The distinct items of `items`, ascending, and the index ranking them
    /// `0, 1, …` in that order.
    ///
    /// # Panics
    /// As [`from_ranked`](Self::from_ranked).
    pub(crate) fn distinct(items: &[Item]) -> (ItemIndex, Vec<Item>) {
        let largest = items.iter().copied().max();
        let mut slots = vec![0u32; largest.map_or(0, Self::span)];
        let mut distinct = Vec::new();
        for &item in items {
            let slot = &mut slots[item.index()];
            if *slot == 0 {
                *slot = 1;
                distinct.push(item);
            }
        }
        distinct.sort_unstable();
        for (rank, item) in (1..).zip(&distinct) {
            slots[item.index()] = rank;
        }
        (ItemIndex { slots }, distinct)
    }

    /// Ids an index whose largest item is `largest` spans.
    fn span(largest: Item) -> usize {
        let ids = largest.id().checked_add(1);
        ids.expect("candidate item ids stay below u32::MAX") as usize
    }

    /// `item`'s rank plus one, or 0 when no candidate holds it: a row of a
    /// per-rank table whose row 0 is a sink.
    #[inline]
    pub(crate) fn slot(&self, item: Item) -> usize {
        self.slots
            .get(item.index())
            .map_or(0, |&slot| slot as usize)
    }

    /// `item`'s rank, if a candidate holds it.
    #[inline]
    pub(crate) fn rank(&self, item: Item) -> Option<u32> {
        self.slot(item).checked_sub(1).map(|rank| rank as u32)
    }
}

/// Runs `build` and fails if it left more than 256 MiB more resident (as
/// `/proc/self/statm` reads it, where there is one): an [`ItemIndex`] up to
/// [`Item::MAX_ID`] that wrote every slot would leave 512 MiB.
#[cfg(test)]
pub(crate) fn touching_few_pages<T>(build: impl FnOnce() -> T) -> T {
    let resident = || {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        statm.split_whitespace().nth(1)?.parse::<u64>().ok()
    };
    let before = resident();
    let built = build();
    if let (Some(before), Some(after)) = (before, resident()) {
        let grown = after.saturating_sub(before) * 4096;
        assert!(grown < 256 << 20, "building touched {grown} bytes");
    }
    built
}

/// Maps item names (e.g. `"Diaper"`) to dense [`Item`] ids and back.
///
/// The mining pipeline works on integer ids only; this interner exists for
/// ergonomic examples and for reading named transaction files.
#[derive(Debug, Default, Clone)]
pub struct ItemInterner {
    names: Vec<String>,
    by_name: std::collections::HashMap<String, Item>,
}

impl ItemInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the item for `name`, interning it if new.
    pub(crate) fn intern(&mut self, name: &str) -> Item {
        if let Some(&item) = self.by_name.get(name) {
            return item;
        }
        let item = Item(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), item);
        item
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<Item> {
        self.by_name.get(name).copied()
    }

    /// The name of `item`, if it was interned here.
    pub fn name(&self, item: Item) -> Option<&str> {
        self.names.get(item.index()).map(String::as_str)
    }

    /// Number of distinct interned items.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no items have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_ordering_follows_id() {
        assert!(Item(1) < Item(2));
        assert_eq!(Item(7), Item::new(7));
        assert_eq!(Item(7).id(), 7);
        assert_eq!(Item(7).index(), 7usize);
    }

    #[test]
    fn item_conversions_roundtrip() {
        let item: Item = 42u32.into();
        let raw: u32 = item.into();
        assert_eq!(raw, 42);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Item(3).to_string(), "3");
        assert_eq!(format!("{:?}", Item(3)), "i3");
    }

    #[test]
    fn interner_assigns_dense_ids_in_first_seen_order() {
        let mut interner = ItemInterner::new();
        let bread = interner.intern("Bread");
        let milk = interner.intern("Milk");
        assert_eq!(bread, Item(0));
        assert_eq!(milk, Item(1));
        assert_eq!(interner.intern("Bread"), bread, "re-intern is idempotent");
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn interner_lookups() {
        let mut interner = ItemInterner::new();
        let beer = interner.intern("Beer");
        assert_eq!(interner.get("Beer"), Some(beer));
        assert_eq!(interner.get("Wine"), None);
        assert_eq!(interner.name(beer), Some("Beer"));
        assert_eq!(interner.name(Item(99)), None);
    }

    #[test]
    fn index_ranks_distinct_items_ascending_and_nothing_else() {
        let items = [9, 2, 9, 5, 2].map(Item);
        let (index, distinct) = ItemIndex::distinct(&items);
        assert_eq!(distinct, [2, 5, 9].map(Item));
        let ranks: Vec<_> = (0..12).map(|id| index.rank(Item(id))).collect();
        let mut want = vec![None; 12];
        (want[2], want[5], want[9]) = (Some(0), Some(1), Some(2));
        assert_eq!(ranks, want);
        assert_eq!((index.slot(Item(9)), index.slot(Item(7))), (3, 0));
        let empty = ItemIndex::distinct(&[]).0;
        assert_eq!(
            (empty.rank(Item(0)), empty.slot(Item::MAX_ID.into())),
            (None, 0)
        );
    }

    #[test]
    fn index_keeps_the_ranks_it_is_given() {
        let index = ItemIndex::from_ranked([(Item(4), 7), (Item(1), 0)].into_iter());
        assert_eq!(index.rank(Item(4)), Some(7));
        assert_eq!(index.rank(Item(1)), Some(0));
        assert_eq!(index.rank(Item(2)), None);
        assert_eq!(index.rank(Item(u32::MAX)), None);
    }

    #[test]
    fn empty_interner() {
        let interner = ItemInterner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.len(), 0);
    }
}
