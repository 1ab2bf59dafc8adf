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
    fn empty_interner() {
        let interner = ItemInterner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.len(), 0);
    }
}
