//! Dense item bitmaps.
//!
//! IDD keeps "the first items of the candidates it has in a bit-map"
//! (Section III-C) and consults it at the root of the hash tree to skip
//! starting items whose candidates live on other processors.

use crate::item::Item;

/// A fixed-universe bit set indexed by [`Item`] id.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct ItemBitmap {
    words: Vec<u64>,
    num_items: u32,
}

impl ItemBitmap {
    /// An all-zero bitmap over `0..num_items`.
    pub(crate) fn new(num_items: u32) -> Self {
        ItemBitmap {
            words: vec![0; (num_items as usize).div_ceil(64)],
            num_items,
        }
    }

    /// Builds a bitmap with the given items set.
    #[cfg(test)]
    pub(crate) fn from_items<I: IntoIterator<Item = Item>>(num_items: u32, items: I) -> Self {
        let mut bm = ItemBitmap::new(num_items);
        for item in items {
            bm.insert(item);
        }
        bm
    }

    /// The universe size.
    pub(crate) fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Sets the bit for `item`.
    ///
    /// # Panics
    /// If `item` is outside the universe.
    pub(crate) fn insert(&mut self, item: Item) {
        assert!(item.id() < self.num_items, "item {item} out of universe");
        self.words[item.index() / 64] |= 1u64 << (item.index() % 64);
    }

    /// Whether the bit for `item` is set. Items outside the universe are
    /// never contained.
    #[inline]
    pub(crate) fn contains(&self, item: Item) -> bool {
        if item.id() >= self.num_items {
            return false;
        }
        self.words[item.index() / 64] & (1u64 << (item.index() % 64)) != 0
    }

    /// Number of set bits.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bits are set.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the set items in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Item> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some(Item((wi * 64) as u32 + bit))
            })
        })
    }
}

/// Wide-word kernels over raw `u64` blocks — the inner loops of the
/// vertical (tid-bitmap) counting backend. A block is simply a dense bit
/// set packed 64 bits per word; candidates intersect by ANDing blocks and
/// a support count is one popcount sweep. All kernels return or consume
/// plain slices so callers can account the touched word count exactly
/// (that count is what `CounterStats::intersection_words` prices).
pub(crate) mod words {
    /// Number of `u64` words needed to hold `bits` bits.
    pub(crate) fn words_for(bits: usize) -> usize {
        bits.div_ceil(64)
    }

    /// Sets bit `i` in a block.
    #[inline]
    pub(crate) fn set_bit(block: &mut [u64], i: usize) {
        block[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set in a block.
    #[inline]
    pub(crate) fn test_bit(block: &[u64], i: usize) -> bool {
        block[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `a AND b` into `out`, replacing what it held. Blocks must be the
    /// same length.
    pub(crate) fn and_into(out: &mut Vec<u64>, a: &[u64], b: &[u64]) {
        debug_assert_eq!(a.len(), b.len(), "block length mismatch");
        out.clear();
        out.extend(a.iter().zip(b).map(|(&x, &y)| x & y));
    }

    /// Popcount of `a AND b` without materializing the intersection — the
    /// final step of a candidate evaluation.
    pub(crate) fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len(), "block length mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x & y).count_ones() as u64)
            .sum()
    }

    /// Popcount of one block.
    pub(crate) fn popcount(block: &[u64]) -> u64 {
        block.iter().map(|w| w.count_ones() as u64).sum()
    }
}

impl std::fmt::Debug for ItemBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains() {
        let mut bm = ItemBitmap::new(130);
        assert!(bm.is_empty());
        bm.insert(Item(0));
        bm.insert(Item(64));
        bm.insert(Item(129));
        assert!(bm.contains(Item(0)));
        assert!(bm.contains(Item(64)));
        assert!(bm.contains(Item(129)));
        assert!(!bm.contains(Item(1)));
        assert_eq!(bm.len(), 3);
    }

    #[test]
    fn out_of_universe_contains_is_false() {
        let bm = ItemBitmap::new(10);
        assert!(!bm.contains(Item(10)));
        assert!(!bm.contains(Item(1000)));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_insert_panics() {
        ItemBitmap::new(10).insert(Item(10));
    }

    #[test]
    fn iter_ascending() {
        let bm = ItemBitmap::from_items(200, [Item(5), Item(190), Item(63), Item(64)]);
        let items: Vec<u32> = bm.iter().map(Item::id).collect();
        assert_eq!(items, vec![5, 63, 64, 190]);
    }

    #[test]
    fn word_kernels_match_naive_bit_sets() {
        let n = 200;
        let mut a = vec![0u64; words::words_for(n)];
        let mut b = vec![0u64; words::words_for(n)];
        let set_a: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
        let set_b: Vec<usize> = (0..n)
            .filter(|i| i % 5 == 0 || i % 3 == 0 && i % 2 == 0)
            .collect();
        for &i in &set_a {
            words::set_bit(&mut a, i);
        }
        for &i in &set_b {
            words::set_bit(&mut b, i);
        }
        assert!(words::test_bit(&a, 0) && !words::test_bit(&a, 1));
        assert_eq!(words::popcount(&a), set_a.len() as u64);
        let both: Vec<usize> = set_a
            .iter()
            .copied()
            .filter(|i| set_b.contains(i))
            .collect();
        assert_eq!(words::and_popcount(&a, &b), both.len() as u64);
        let mut anded = vec![u64::MAX; 9];
        words::and_into(&mut anded, &a, &b);
        assert_eq!(words::popcount(&anded), both.len() as u64);
        for &i in &both {
            assert!(words::test_bit(&anded, i));
        }
    }

    #[test]
    fn word_kernels_handle_empty_blocks() {
        assert_eq!(words::words_for(0), 0);
        assert_eq!(words::words_for(64), 1);
        assert_eq!(words::words_for(65), 2);
        assert_eq!(words::popcount(&[]), 0);
        assert_eq!(words::and_popcount(&[], &[]), 0);
        let mut anded = vec![1];
        words::and_into(&mut anded, &[], &[]);
        assert!(anded.is_empty());
    }

    #[test]
    fn empty_universe() {
        let bm = ItemBitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.len(), 0);
        assert_eq!(bm.iter().count(), 0);
    }
}
