//! The hash tree's nodes, flat: every interior node is a block of
//! `branching` child slots in one `Vec<u32>`, every leaf a range of the
//! tree's leaf-ordered candidate arrays plus the batch's visit bits.
//! [`Walk`] is one transaction's descent over them: it only marks the
//! leaves it reaches. [`Arena::score`] then checks each leaf a batch of
//! transactions reached, once per batch, against its per-item masks.

use super::filter::OwnershipFilter;
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

/// Candidates `start..end` of the leaf-ordered arrays, plus which
/// transactions of the current batch reached them: bit `j` for the batch's
/// `j`-th (the revisit suppression, and the scoring's starting mask).
struct Leaf {
    start: u32,
    end: u32,
    visited: u64,
}

pub(super) struct Arena {
    branching: usize,
    /// Interior node `n` owns `slots[n * branching..][..branching]`.
    slots: Vec<u32>,
    leaves: Vec<Leaf>,
    root: u32,
    /// The leaves the current batch reached, each once, in arrival order.
    touched: Vec<u32>,
    /// The walked transaction's hash buckets, one per item.
    buckets: Vec<u32>,
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
            touched: Vec::new(),
            buckets: Vec::new(),
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
                visited: 0,
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

    /// Whether no leaf holds a visit bit and none awaits scoring.
    #[cfg(test)]
    pub(super) fn is_clean(&self) -> bool {
        self.touched.is_empty() && self.leaves.iter().all(|l| l.visited == 0)
    }

    /// Checks every leaf the batch reached against the batch, once: a
    /// candidate's count grows by the number of transactions that both
    /// reached its leaf and hold all its items, the popcount of the
    /// leaf's visit bits ANDed with each item's mask. `masks` needs a word
    /// per item id up to the largest candidate item. Leaves the visit bits
    /// zero for the next batch.
    pub(super) fn score(&mut self, items: &[Item], counts: &mut [u64], masks: &[u64], k: usize) {
        for index in self.touched.drain(..) {
            let leaf = &mut self.leaves[index as usize];
            let visited = std::mem::take(&mut leaf.visited);
            let (start, end) = (leaf.start as usize, leaf.end as usize);
            let candidates = items[start * k..end * k].chunks_exact(k);
            for (candidate, count) in candidates.zip(&mut counts[start..end]) {
                // No early exit on an empty mask: the branch costs more
                // than the `k` ANDs it would save.
                let hits = candidate
                    .iter()
                    .fold(visited, |hits, item| hits & masks[item.index()]);
                *count += u64::from(hits.count_ones());
            }
        }
    }
}

/// One transaction's subset walk: the tree's parts borrowed side by side
/// so the recursion can mark leaves and count its own work.
pub(super) struct Walk<'a> {
    pub arena: &'a mut Arena,
    pub stats: &'a mut CounterStats,
    /// The whole (sorted) transaction.
    pub titems: &'a [Item],
    pub k: usize,
    /// The transaction's bit in the batch: `1 << j` for the `j`-th.
    pub bit: u64,
    pub filter: &'a OwnershipFilter,
}

impl Walk<'_> {
    /// The recursive subset operation of Section II, from the root.
    pub(super) fn run(&mut self) {
        let b = self.arena.branching;
        let buckets = &mut self.arena.buckets;
        buckets.clear();
        // Lossless: a bucket is at most the item's own `u32` id.
        buckets.extend(self.titems.iter().map(|&item| hash(item, b) as u32));
        self.descend(self.arena.root, 0, 0, None);
    }

    /// `start` is the index from which the next item of a candidate path
    /// may be drawn; `depth` is how many items the path has consumed;
    /// `path_first` is the item it started with.
    fn descend(&mut self, node: u32, start: usize, depth: usize, path_first: Option<Item>) {
        if node & LEAF != 0 {
            self.visit_leaf(node & !LEAF);
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
            let child = self.arena.slots[base + self.arena.buckets[p] as usize];
            if child != NONE {
                self.stats.traversal_steps += 1;
                let first = if depth == 0 { Some(item) } else { path_first };
                self.descend(child, p + 1, depth + 1, first);
            }
        }
    }

    /// Marks a leaf reached by this transaction and charges its check
    /// (one `t_check` visit, a comparison per candidate), but only on the
    /// first arrival per transaction: revisits are free. The check itself
    /// waits for [`Arena::score`].
    fn visit_leaf(&mut self, index: u32) {
        let leaf = &mut self.arena.leaves[index as usize];
        if leaf.visited & self.bit != 0 {
            return;
        }
        if leaf.visited == 0 {
            self.arena.touched.push(index);
        }
        leaf.visited |= self.bit;
        self.stats.distinct_leaf_visits += 1;
        self.stats.candidate_checks += u64::from(leaf.end - leaf.start);
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
