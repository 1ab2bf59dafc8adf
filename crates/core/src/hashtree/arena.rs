//! The hash tree's nodes, flat: every interior node is a block of
//! `branching` child slots in one `Vec<u32>`, every leaf a range of the
//! tree's leaf-ordered candidate arrays plus the batch's visit bits.
//! [`Arena::walk`] is one transaction's descent over them: it only marks
//! the leaves it reaches. [`Arena::score`] then checks each leaf a batch of
//! transactions reached, once per batch, against its per-item masks.
//! [`Arena::pair_shape`] builds a pass-2 tree's nodes and leaf sizes with
//! no candidate behind them: its walk only charges the ledger, and
//! [`Arena::clear_visits`] forgets the marks.

use super::filter::OwnershipFilter;
use crate::counter::CounterStats;
use crate::item::Item;

/// The hash function of the tree, `id % branching`: items are hashed on
/// their integer value (Figure 2 uses `mod 3`: buckets {1,4,7}, {2,5,8},
/// {3,6,9}). The remainder is computed without a divide, by the
/// multiply-shift of Lemire, Kaser and Kurz, "Faster remainder by direct
/// computation" (2019): with `m = ⌊(2^64 − 1)/b⌋ + 1`, the high word of
/// `b · (m · id mod 2^64)` is `id % b` for every 32-bit `id` and `b`.
#[derive(Debug, Clone, Copy)]
struct Modulus {
    branching: u64,
    magic: u64,
}

impl Modulus {
    fn new(branching: usize) -> Self {
        assert!(branching >= 2, "branching must be at least 2");
        let branching = u64::from(u32::try_from(branching).expect("branching fits in 32 bits"));
        Modulus {
            branching,
            magic: u64::MAX / branching + 1,
        }
    }

    /// `item.id() % branching`.
    #[inline]
    fn bucket(self, item: Item) -> u32 {
        let low = self.magic.wrapping_mul(u64::from(item.id()));
        ((u128::from(low) * u128::from(self.branching)) >> 64) as u32
    }
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
    modulus: Modulus,
    /// Interior node `n` owns `slots[n * branching..][..branching]`.
    slots: Vec<u32>,
    leaves: Vec<Leaf>,
    root: u32,
    /// The leaves the current batch reached, each once, in arrival order:
    /// the first `reached` of one slot per leaf, plus one that a walk may
    /// write past them.
    touched: Vec<u32>,
    reached: usize,
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
        let mut arena = Arena::empty(branching, num_candidates);
        let mut order: Vec<u32> = (0..num_candidates as u32).collect();
        let mut scratch = vec![0u32; order.len()];
        let root = arena.partition(candidates, &mut order, &mut scratch, 0, 0, k, max_leaf);
        (arena.rooted(root), order)
    }

    /// The shape [`build`](Self::build) gives a tree over the pairs that
    /// `pairs` yields (read at most twice, as ranks into `items`), worked
    /// out from hash counts alone: a root bucket that at most `max_leaf`
    /// pairs reach is a leaf, a fuller one a node whose cells, the pairs
    /// counted by their second item's bucket, are leaves. Every slot and
    /// leaf size is the one `build` gives; no candidate is placed, so the
    /// leaves are only ever walked, never scored.
    pub(super) fn pair_shape<I: Iterator<Item = (u32, u32)>>(
        branching: usize,
        max_leaf: usize,
        items: &[Item],
        pairs: impl Fn() -> I,
    ) -> Arena {
        let modulus = Modulus::new(branching);
        let bucket: Vec<u32> = items.iter().map(|&item| modulus.bucket(item)).collect();
        let mut row_sizes = vec![0usize; branching];
        // `for_each`, not `for`: a flattened iterator folds in tight loops.
        pairs().for_each(|(first, _)| row_sizes[bucket[first as usize] as usize] += 1);
        let num_pairs: usize = row_sizes.iter().sum();
        let mut arena = Arena::empty(branching, num_pairs);
        if num_pairs <= max_leaf {
            let root = arena.leaf(0, num_pairs);
            return arena.rooted(root);
        }
        // The root's slots, then one block per full bucket, in bucket
        // order as `partition` allocates them. A full bucket's root slot
        // names its node, and the node's slots count its cells.
        let b = branching;
        arena.slots = vec![NONE; b];
        for (h, _) in row_sizes.iter().enumerate().filter(|&(_, &n)| n > max_leaf) {
            arena.slots[h] = (arena.slots.len() / b) as u32;
            arena.slots.resize(arena.slots.len() + b, 0);
        }
        pairs().for_each(|(first, second)| {
            let node = arena.slots[bucket[first as usize] as usize];
            if node != NONE {
                arena.slots[node as usize * b + bucket[second as usize] as usize] += 1;
            }
        });
        // The leaves, in the depth-first order `partition` pushes them.
        let leaf_rows = row_sizes.iter().filter(|&&n| 0 < n && n <= max_leaf);
        let leaf_cells = arena.slots[b..].iter().filter(|&&n| n > 0);
        arena
            .leaves
            .reserve_exact(leaf_rows.count() + leaf_cells.count());
        let mut offset = 0;
        for (h, &size) in row_sizes.iter().enumerate().filter(|&(_, &n)| n > 0) {
            if size <= max_leaf {
                arena.slots[h] = arena.leaf(offset, size);
                offset += size;
                continue;
            }
            let base = arena.slots[h] as usize * b;
            for cell in base..base + b {
                let size = arena.slots[cell] as usize;
                arena.slots[cell] = match size {
                    0 => NONE,
                    _ => arena.leaf(offset, size),
                };
                offset += size;
            }
        }
        arena.rooted(0)
    }

    /// A tree with no node yet, for `num_candidates` candidates.
    fn empty(branching: usize, num_candidates: usize) -> Arena {
        assert!(
            num_candidates < LEAF as usize,
            "too many candidates for one tree"
        );
        Arena {
            branching,
            modulus: Modulus::new(branching),
            slots: Vec::new(),
            leaves: Vec::new(),
            root: NONE,
            touched: Vec::new(),
            reached: 0,
            buckets: Vec::new(),
        }
    }

    /// The tree with `root` as its root slot, ready to walk.
    fn rooted(mut self, root: u32) -> Arena {
        self.root = root;
        self.touched = vec![0; self.leaves.len() + 1];
        self
    }

    /// Adds the leaf over candidates `start..start + len` of the leaf
    /// order and returns its slot.
    fn leaf(&mut self, start: usize, len: usize) -> u32 {
        self.leaves.push(Leaf {
            start: start as u32,
            end: (start + len) as u32,
            visited: 0,
        });
        LEAF | (self.leaves.len() - 1) as u32
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
            return self.leaf(offset, order.len());
        }
        // Stable counting sort on the hash of the `depth`-th item.
        let (b, modulus) = (self.branching, self.modulus);
        let bucket = |id: u32| modulus.bucket(candidates[id as usize * k + depth]) as usize;
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

    #[cfg(test)]
    pub(super) fn occupied_leaves(&self) -> usize {
        self.leaves.iter().filter(|l| l.start < l.end).count()
    }

    /// The root slot, every node's slots and every leaf's candidate range.
    #[cfg(test)]
    pub(super) fn shape(&self) -> (u32, &[u32], Vec<(u32, u32)>) {
        let leaves = self.leaves.iter().map(|l| (l.start, l.end)).collect();
        (self.root, &self.slots, leaves)
    }

    /// Whether no leaf holds a visit bit and none awaits scoring.
    #[cfg(test)]
    pub(super) fn is_clean(&self) -> bool {
        self.reached == 0 && self.leaves.iter().all(|l| l.visited == 0)
    }

    /// Zeroes the visit bits of every leaf the batch reached, for a tree
    /// whose leaves are walked but never scored.
    pub(super) fn clear_visits(&mut self) {
        let reached = std::mem::take(&mut self.reached);
        for &index in &self.touched[..reached] {
            self.leaves[index as usize].visited = 0;
        }
    }

    /// Checks every leaf the batch reached against the batch, once: a
    /// candidate's count grows by the number of transactions that both
    /// reached its leaf and hold all its items, the popcount of the
    /// leaf's visit bits ANDed with each item's mask. `masks` needs a word
    /// per item id up to the largest candidate item. Leaves the visit bits
    /// zero for the next batch.
    pub(super) fn score(&mut self, items: &[Item], counts: &mut [u64], masks: &[u64], k: usize) {
        let reached = std::mem::take(&mut self.reached);
        for &index in &self.touched[..reached] {
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

/// Always true: the filter of every walk step below the ones a filter
/// prunes.
fn any_item(_: Item) -> bool {
    true
}

impl Arena {
    /// Where the walk of `titems` (sorted, at least `k` of them) starts:
    /// its first starting item `filter` owns, or `None` if it has none, so
    /// that the walk would mark no leaf and charge no work. A tree whose
    /// root is a leaf is reached by every such transaction, filter or not.
    pub(super) fn first_start(
        &self,
        titems: &[Item],
        k: usize,
        filter: &OwnershipFilter,
    ) -> Option<usize> {
        if filter.is_all() || self.root & LEAF != 0 {
            return Some(0);
        }
        titems[..=titems.len() - k]
            .iter()
            .position(|&item| filter.allows_root(item))
    }

    /// The subset operation of Section II for one transaction of at least
    /// `k` items, from its starting item `titems[from]` on (see
    /// [`first_start`](Self::first_start)): marks every leaf it reaches
    /// with `bit` and charges `stats` the walk the model prices.
    pub(super) fn walk(
        &mut self,
        titems: &[Item],
        from: usize,
        k: usize,
        bit: u64,
        filter: &OwnershipFilter,
        stats: &mut CounterStats,
    ) {
        let modulus = self.modulus;
        self.buckets.clear();
        self.buckets
            .extend(titems.iter().map(|&item| modulus.bucket(item)));
        let mut walk = Walk {
            slots: &self.slots,
            leaves: &mut self.leaves,
            touched: &mut self.touched,
            reached: &mut self.reached,
            buckets: &self.buckets,
            titems,
            branching: self.branching,
            bit,
            root_starts: 0,
            traversal_steps: 0,
            distinct_leaf_visits: 0,
            candidate_checks: 0,
        };
        if self.root & LEAF != 0 {
            walk.arrive(self.root);
        } else {
            walk.start(self.root, from, k, filter);
        }
        stats.root_starts += walk.root_starts;
        stats.traversal_steps += walk.traversal_steps;
        stats.distinct_leaf_visits += walk.distinct_leaf_visits;
        stats.candidate_checks += walk.candidate_checks;
    }
}

/// One transaction's subset walk: the arena's parts borrowed side by side,
/// and the work it charges, summed here and added to the tree's ledger
/// once the walk is done.
struct Walk<'a> {
    slots: &'a [u32],
    leaves: &'a mut [Leaf],
    touched: &'a mut [u32],
    reached: &'a mut usize,
    /// The hash bucket of each of the transaction's items.
    buckets: &'a [u32],
    /// The whole (sorted) transaction.
    titems: &'a [Item],
    branching: usize,
    /// The transaction's bit in the batch: `1 << j` for the `j`-th.
    bit: u64,
    root_starts: u64,
    traversal_steps: u64,
    distinct_leaf_visits: u64,
    candidate_checks: u64,
}

impl Walk<'_> {
    /// The root's loop, the one that owns the filter's first-item test
    /// and the `root_starts` charge. A starting item needs `k − 1` items
    /// after it. Only a two-level filter prunes second items, so only its
    /// walk tests them.
    fn start(&mut self, root: u32, from: usize, k: usize, filter: &OwnershipFilter) {
        let all = filter.is_all();
        let prunes_second = filter.prunes_second();
        let base = root as usize * self.branching;
        for p in from..=self.titems.len() - k {
            let first = self.titems[p];
            // IDD's bitmap check at the root: skip starting items whose
            // candidates live on other processors.
            if !all && !filter.allows_root(first) {
                continue;
            }
            self.root_starts += 1;
            let child = self.slots[base + self.buckets[p] as usize];
            if child == NONE {
                continue;
            }
            self.traversal_steps += 1;
            if child & LEAF != 0 {
                self.arrive(child);
            } else if prunes_second {
                let allows = |second| filter.allows_second(first, second);
                self.descend(child, p + 1, k - 1, allows);
            } else {
                self.descend(child, p + 1, k - 1, any_item);
            }
        }
    }

    /// The walk below the root at interior node `node`: each item from
    /// `titems[start]` on that leaves the `needed − 1` more a candidate
    /// path takes, and that `allows` admits, descends by its bucket.
    fn descend(&mut self, node: u32, start: usize, needed: usize, allows: impl Fn(Item) -> bool) {
        let base = node as usize * self.branching;
        let slots = &self.slots[base..base + self.branching];
        let last = self.titems.len() - needed;
        let rest = self.titems[start..=last]
            .iter()
            .zip(&self.buckets[start..=last]);
        for (p, (&item, &bucket)) in (start..).zip(rest) {
            if !allows(item) {
                continue;
            }
            let child = slots[bucket as usize];
            if child == NONE {
                continue;
            }
            self.traversal_steps += 1;
            if child & LEAF != 0 {
                self.arrive(child);
            } else {
                self.descend(child, p + 1, needed - 1, any_item);
            }
        }
    }

    /// Marks the leaf `slot` names as reached by this transaction and
    /// charges its check (one `t_check` visit, a comparison per
    /// candidate), but only on the first arrival per transaction: revisits
    /// are free. The check itself waits for [`Arena::score`]. Without a
    /// branch: whether this is the transaction's first arrival, or the
    /// batch's, is as likely one way as the other, so the charges are
    /// added times 0 or 1, and the leaf is always written to the next
    /// touched slot, which only a batch's first arrival keeps.
    #[inline]
    fn arrive(&mut self, slot: u32) {
        let index = slot & !LEAF;
        let leaf = &mut self.leaves[index as usize];
        let first = u64::from(leaf.visited & self.bit == 0);
        self.touched[*self.reached] = index;
        *self.reached += usize::from(leaf.visited == 0);
        leaf.visited |= self.bit;
        self.distinct_leaf_visits += first;
        self.candidate_checks += first * u64::from(leaf.end - leaf.start);
    }
}

/// The recursive walk the one above replaced, kept as its reference: one
/// function for every depth, the filter tested by depth, `%` for the
/// bucket, the ledger charged step by step. It marks leaves as
/// [`Arena::walk`] does, so [`Arena::score`] scores either.
#[cfg(test)]
pub(super) struct ReferenceWalk<'a> {
    pub arena: &'a mut Arena,
    pub stats: &'a mut CounterStats,
    pub titems: &'a [Item],
    pub k: usize,
    pub bit: u64,
    pub filter: &'a OwnershipFilter,
}

#[cfg(test)]
impl ReferenceWalk<'_> {
    pub(super) fn run(&mut self) {
        let b = self.arena.branching;
        let buckets = &mut self.arena.buckets;
        buckets.clear();
        buckets.extend(self.titems.iter().map(|&item| (item.index() % b) as u32));
        self.descend(self.arena.root, 0, 0, None);
    }

    fn descend(&mut self, node: u32, start: usize, depth: usize, path_first: Option<Item>) {
        if node & LEAF != 0 {
            self.visit_leaf(node & !LEAF);
            return;
        }
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

    fn visit_leaf(&mut self, index: u32) {
        let leaf = &mut self.arena.leaves[index as usize];
        if leaf.visited & self.bit != 0 {
            return;
        }
        if leaf.visited == 0 {
            self.arena.touched[self.arena.reached] = index;
            self.arena.reached += 1;
        }
        leaf.visited |= self.bit;
        self.stats.distinct_leaf_visits += 1;
        self.stats.candidate_checks += u64::from(leaf.end - leaf.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(item: Item, branching: usize) -> usize {
        Modulus::new(branching).bucket(item) as usize
    }

    #[test]
    fn hash_matches_paper_buckets() {
        // Figure 2's hash function groups {1,4,7}, {2,5,8}, {3,6,9} mod 3.
        assert_eq!(hash(Item(1), 3), hash(Item(4), 3));
        assert_eq!(hash(Item(4), 3), hash(Item(7), 3));
        assert_eq!(hash(Item(2), 3), hash(Item(5), 3));
        assert_ne!(hash(Item(1), 3), hash(Item(2), 3));
        assert_ne!(hash(Item(2), 3), hash(Item(3), 3));
    }

    /// The multiply-shift remainder is `%` for every fan-out up to 4096,
    /// at the edges of each bucket, at the largest legal id and beyond,
    /// and on seeded random ids.
    #[test]
    fn the_divisor_free_remainder_is_the_remainder() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2019);
        for b in 2..=4096u32 {
            let modulus = Modulus::new(b as usize);
            let edges = [0, 1, b - 1, b, b + 1, 2 * b - 1, Item::MAX_ID, u32::MAX];
            let random = (0..64).map(|_| rng.gen::<u32>());
            for id in edges.into_iter().chain(random) {
                assert_eq!(modulus.bucket(Item(id)), id % b, "{id} mod {b}");
            }
        }
    }

    #[test]
    fn empty_tree_is_one_empty_leaf() {
        let (arena, order) = Arena::build(3, 8, 16, &[]);
        assert!(order.is_empty());
        assert_eq!(arena.num_leaves(), 1);
        assert_eq!(arena.occupied_leaves(), 0);
    }
}
