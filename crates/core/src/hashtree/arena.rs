//! The hash tree's nodes, flat: every interior node is a block of
//! `branching` child slots in one `Vec<u32>`, every leaf a range of the
//! tree's leaf-ordered candidate arrays plus its revisit stamp. [`Walk`]
//! is one transaction's descent over them; at a leaf it probes the tree's
//! presence bitmap, which holds that transaction's items for its duration.

use super::filter::OwnershipFilter;
use crate::bitmap::ItemBitmap;
use crate::counter::CounterStats;
use crate::item::Item;

/// The hash function of the tree: items are hashed on their integer value
/// (Figure 2 uses `mod 3`: buckets {1,4,7}, {2,5,8}, {3,6,9}).
#[inline]
fn hash(item: Item, branching: usize) -> usize {
    item.index() % branching
}

/// A child slot with no subtree behind it.
const NONE: u32 = u32::MAX;
/// Tag bit of a slot that names a leaf; the other bits index `leaves`.
/// Without it the slot indexes an interior node.
const LEAF: u32 = 1 << 31;

/// Candidates `start..end` of the leaf-ordered arrays, plus the epoch of
/// the last transaction that checked them (the revisit-suppression stamp).
struct Leaf {
    start: u32,
    end: u32,
    epoch: u64,
}

pub(super) struct Arena {
    branching: usize,
    /// Interior node `n` owns `slots[n * branching..][..branching]`.
    slots: Vec<u32>,
    leaves: Vec<Leaf>,
    root: u32,
}

impl Arena {
    /// Partitions `candidates` (items strided by `k`) into the tree that
    /// inserting them one by one would grow: a node is interior exactly
    /// when more than `max_leaf` candidates reach it above depth `k`, and
    /// a child exists exactly when a candidate hashes to it. Returns the
    /// arena and the leaf order (candidate ids, ascending within each leaf).
    pub(super) fn build(
        k: usize,
        branching: usize,
        max_leaf: usize,
        candidates: &[Item],
    ) -> (Arena, Vec<u32>) {
        let num_candidates = candidates.len() / k;
        assert!(
            num_candidates < LEAF as usize,
            "too many candidates for one tree"
        );
        let mut arena = Arena {
            branching,
            slots: Vec::new(),
            leaves: Vec::new(),
            root: NONE,
        };
        let mut order: Vec<u32> = (0..num_candidates as u32).collect();
        let mut scratch = vec![0u32; order.len()];
        arena.root = arena.partition(candidates, &mut order, &mut scratch, 0, 0, k, max_leaf);
        (arena, order)
    }

    /// Builds the subtree over `order` (candidates `offset..` of the leaf
    /// order, all agreeing on the hash path so far) and returns its slot.
    #[allow(clippy::too_many_arguments)]
    fn partition(
        &mut self,
        candidates: &[Item],
        order: &mut [u32],
        scratch: &mut [u32],
        offset: usize,
        depth: usize,
        k: usize,
        max_leaf: usize,
    ) -> u32 {
        // At depth `k` every item is consumed; hashing further is
        // impossible, so the leaf keeps whatever reached it.
        if order.len() <= max_leaf || depth == k {
            self.leaves.push(Leaf {
                start: offset as u32,
                end: (offset + order.len()) as u32,
                epoch: 0,
            });
            return LEAF | (self.leaves.len() - 1) as u32;
        }
        // Stable counting sort on the hash of the `depth`-th item.
        let b = self.branching;
        let bucket = |id: u32| hash(candidates[id as usize * k + depth], b);
        let mut bounds = vec![0usize; b + 1];
        for &id in order.iter() {
            bounds[bucket(id) + 1] += 1;
        }
        for h in 0..b {
            bounds[h + 1] += bounds[h];
        }
        let mut next = bounds.clone();
        for &id in order.iter() {
            let h = bucket(id);
            scratch[next[h]] = id;
            next[h] += 1;
        }
        order.copy_from_slice(scratch);

        let base = self.slots.len();
        self.slots.resize(base + b, NONE);
        for h in 0..b {
            let (lo, hi) = (bounds[h], bounds[h + 1]);
            if lo < hi {
                self.slots[base + h] = self.partition(
                    candidates,
                    &mut order[lo..hi],
                    &mut scratch[lo..hi],
                    offset + lo,
                    depth + 1,
                    k,
                    max_leaf,
                );
            }
        }
        (base / b) as u32
    }

    pub(super) fn branching(&self) -> usize {
        self.branching
    }

    pub(super) fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    pub(super) fn occupied_leaves(&self) -> usize {
        self.leaves.iter().filter(|l| l.start < l.end).count()
    }
}

/// One transaction's subset walk: the tree's parts borrowed side by side
/// so the recursion can stamp leaves, bump counts and count its own work.
pub(super) struct Walk<'a> {
    pub arena: &'a mut Arena,
    /// Candidate items in leaf order, strided by `k`.
    pub items: &'a [Item],
    /// Support counts in leaf order.
    pub counts: &'a mut [u64],
    pub stats: &'a mut CounterStats,
    /// The whole (sorted) transaction.
    pub titems: &'a [Item],
    /// The same transaction as a set, for the leaf check.
    pub present: &'a ItemBitmap,
    pub k: usize,
    pub epoch: u64,
    pub filter: &'a OwnershipFilter,
}

impl Walk<'_> {
    /// The recursive subset operation of Section II, from the root.
    pub(super) fn run(&mut self) {
        self.descend(self.arena.root, 0, 0, None);
    }

    /// `start` is the index from which the next item of a candidate path
    /// may be drawn; `depth` is how many items the path has consumed;
    /// `path_first` is the item it started with.
    fn descend(&mut self, node: u32, start: usize, depth: usize, path_first: Option<Item>) {
        if node & LEAF != 0 {
            self.check_leaf((node & !LEAF) as usize);
            return;
        }
        // A candidate needs k - depth more items, so the last viable
        // starting position leaves at least that many behind.
        let needed = self.k - depth;
        if self.titems.len() < needed {
            return;
        }
        let last = self.titems.len() - needed;
        let b = self.arena.branching;
        let base = node as usize * b;
        for p in start..=last {
            let item = self.titems[p];
            if depth == 0 {
                // IDD's bitmap check at the root: skip starting items
                // whose candidates live on other processors.
                if !self.filter.allows_root(item) {
                    continue;
                }
                self.stats.root_starts += 1;
            } else if depth == 1 {
                if let Some(first) = path_first {
                    if !self.filter.allows_second(first, item) {
                        continue;
                    }
                }
            }
            let child = self.arena.slots[base + hash(item, b)];
            if child != NONE {
                self.stats.traversal_steps += 1;
                let first = if depth == 0 { Some(item) } else { path_first };
                self.descend(child, p + 1, depth + 1, first);
            }
        }
    }

    /// Checks each candidate of a leaf against the whole transaction (`k`
    /// bit probes, stopping at the first item the transaction lacks), but
    /// only on the first arrival per transaction (the epoch stamp makes
    /// revisits free).
    fn check_leaf(&mut self, index: usize) {
        let leaf = &mut self.arena.leaves[index];
        if leaf.epoch == self.epoch {
            return;
        }
        leaf.epoch = self.epoch;
        let (start, end) = (leaf.start as usize, leaf.end as usize);
        self.stats.distinct_leaf_visits += 1;
        self.stats.candidate_checks += (end - start) as u64;
        let k = self.k;
        let candidates = self.items[start * k..end * k].chunks_exact(k);
        for (candidate, count) in candidates.zip(&mut self.counts[start..end]) {
            if candidate.iter().all(|&item| self.present.contains(item)) {
                *count += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_matches_paper_buckets() {
        // Figure 2's hash function groups {1,4,7}, {2,5,8}, {3,6,9} mod 3.
        assert_eq!(hash(Item(1), 3), hash(Item(4), 3));
        assert_eq!(hash(Item(4), 3), hash(Item(7), 3));
        assert_eq!(hash(Item(2), 3), hash(Item(5), 3));
        assert_ne!(hash(Item(1), 3), hash(Item(2), 3));
        assert_ne!(hash(Item(2), 3), hash(Item(3), 3));
    }

    #[test]
    fn empty_tree_is_one_empty_leaf() {
        let (arena, order) = Arena::build(3, 8, 16, &[]);
        assert!(order.is_empty());
        assert_eq!(arena.num_leaves(), 1);
        assert_eq!(arena.occupied_leaves(), 0);
    }
}
