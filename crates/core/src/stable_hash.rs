//! A stable, seedable itemset hash.
//!
//! HPA-style algorithms partition candidates by *hashing the itemset*:
//! every processor must compute the identical owner for the identical
//! candidate, across threads and across runs. PDM's bucket table is
//! indexed the same way, by [`owner_of`] over the bucket count. `std`'s default hasher is
//! randomly seeded per process, so we provide FNV-1a over the item ids —
//! tiny, deterministic, and good enough for bucket spreading.

use crate::item::Item;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte sequence.
#[inline]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let step = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(FNV_PRIME);
    bytes.into_iter().fold(FNV_OFFSET, step)
}

/// Stable hash of an itemset's items: FNV-1a over the little-endian ids.
fn hash_itemset(set: &[Item]) -> u64 {
    fnv1a(set.iter().flat_map(|item| item.id().to_le_bytes()))
}

/// The processor owning the itemset `set` under hash partitioning over
/// `p` buckets.
#[inline]
pub fn owner_of(set: &[Item], p: usize) -> usize {
    debug_assert!(p > 0);
    (hash_itemset(set) % p as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::ItemSet;

    #[test]
    fn deterministic_across_calls() {
        let s = ItemSet::from([3, 9, 14]);
        assert_eq!(hash_itemset(s.items()), hash_itemset(s.items()));
        assert_eq!(owner_of(s.items(), 7), owner_of(s.items(), 7));
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a([]), FNV_OFFSET);
    }

    #[test]
    fn different_sets_usually_differ() {
        let a = hash_itemset(ItemSet::from([1, 2, 3]).items());
        let b = hash_itemset(ItemSet::from([1, 2, 4]).items());
        let c = hash_itemset(ItemSet::from([2, 3]).items());
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn owners_spread_over_buckets() {
        // 1000 random-ish 3-sets over 8 buckets: no bucket should be
        // wildly over-loaded.
        let mut loads = [0usize; 8];
        for a in 0u32..10 {
            for b in 10..20 {
                for c in 20..30 {
                    loads[owner_of(&[Item(a), Item(b), Item(c)], 8)] += 1;
                }
            }
        }
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max < 2 * min.max(1), "bucket loads too skewed: {loads:?}");
    }
}
