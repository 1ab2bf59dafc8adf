//! The hash tree's nodes, flat: every interior node is a block of
//! `branching` child slots in one `Vec<u32>`, every leaf a range of the
//! tree's leaf-ordered candidates. [`Arena::walk`] is one transaction's
//! descent over them, level by level: it charges the ledger and reports
//! each leaf it reaches, and the caller keeps the marks (the full tree's
//! visit bits, one per transaction of a batch, or the pass-2 shape's last
//! visitor per leaf). [`Arena::score`] then sweeps the leaves in leaf
//! order once per batch and checks each one the batch reached against
//! per-item masks, adding to each candidate's count at its row: the leaf
//! order is the tree's own, and the counts stay in row order.
//! [`Arena::pair_shape`] builds a pass-2 tree's nodes and
//! leaf sizes with no candidate behind them, to be walked and never
//! scored.

use super::filter::OwnershipFilter;
use crate::counter::CounterStats;
use crate::item::Item;

/// The hash function of the tree, `id % branching`: items are hashed on
/// their integer value (Figure 2 uses `mod 3`: buckets {1,4,7}, {2,5,8},
/// {3,6,9}). `branching` fits in 32 bits ([`Arena::empty`] checks it).
#[inline]
fn hash(item: Item, branching: usize) -> u32 {
    item.id() % branching as u32
}

/// A child slot with no subtree behind it.
const NONE: u32 = u32::MAX;
/// Tag bit of a slot that names a leaf; the other bits index the leaves.
/// Without it the slot indexes an interior node.
const LEAF: u32 = 1 << 31;

/// Transactions per batch: one bit each of a [`Bits`].
pub(super) const BATCH: usize = 256;
const WORDS: usize = BATCH / u64::BITS as usize;
/// A bit per transaction of a batch, bit `j` for its `j`-th: which of them
/// reached a leaf, hold an item, or were walked.
pub(super) type Bits = [u64; WORDS];
/// The batch's `j`-th transaction's place in a [`Bits`]: its word, and its
/// bit in that word.
pub(super) fn bit(j: usize) -> (usize, u64) {
    (j / u64::BITS as usize, 1 << (j % u64::BITS as usize))
}

/// Entries a frontier level, or the arrival list, holds before the walk
/// drains it: the walk's memory is `k` chunks however many paths a
/// transaction has, 1 KB a level.
pub(super) const CHUNK: usize = 128;

pub(super) struct Arena {
    branching: usize,
    k: usize,
    /// Interior node `n` owns `slots[n * branching..][..branching]`.
    slots: Vec<u32>,
    /// Leaf `i` holds candidates `bounds[i]..bounds[i + 1]` of the leaf
    /// order.
    bounds: Vec<u32>,
    root: u32,
    /// The walked transaction's hash buckets, one per item.
    buckets: Vec<u32>,
    /// Frontier level `d` (of interior nodes at depth `d`, `1..k`) is the
    /// chunk `frontier[(d - 1) * CHUNK..][..CHUNK]` of `(node, start)`
    /// entries, its first `queued[d]` waiting. Nothing is ever queued at
    /// depth `k`, where every node is a leaf.
    frontier: Vec<(u32, u32)>,
    queued: Vec<usize>,
    /// The leaves a walk reached and has not yet marked.
    arrivals: Vec<u32>,
}

impl Arena {
    /// Partitions `candidates` (items strided by `k`) into the tree that
    /// inserting them one by one would grow: a node is interior exactly
    /// when more than `max_leaf` candidates reach it above depth `k`, and
    /// a child exists exactly when a candidate hashes to it. Returns the
    /// arena and the leaf order (candidate rows, ascending within each leaf).
    pub(super) fn build(
        k: usize,
        branching: usize,
        max_leaf: usize,
        candidates: &[Item],
    ) -> (Arena, Vec<u32>) {
        let num_candidates = candidates.len() / k;
        let mut arena = Arena::empty(k, branching, num_candidates);
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
        let bucket: Vec<u32> = items.iter().map(|&item| hash(item, branching)).collect();
        let mut row_sizes = vec![0usize; branching];
        // `for_each`, not `for`: a flattened iterator folds in tight loops.
        pairs().for_each(|(first, _)| row_sizes[bucket[first as usize] as usize] += 1);
        let num_pairs: usize = row_sizes.iter().sum();
        let mut arena = Arena::empty(2, branching, num_pairs);
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
            .bounds
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

    /// A tree of size-`k` candidates with no node yet, for
    /// `num_candidates` of them.
    fn empty(k: usize, branching: usize, num_candidates: usize) -> Arena {
        assert!(
            num_candidates < LEAF as usize,
            "too many candidates for one tree"
        );
        assert!(branching <= u32::MAX as usize, "branching fits in 32 bits");
        Arena {
            branching,
            k,
            slots: Vec::new(),
            bounds: vec![0],
            root: NONE,
            buckets: Vec::new(),
            frontier: Vec::new(),
            queued: Vec::new(),
            arrivals: Vec::new(),
        }
    }

    /// The tree with `root` as its root slot, ready to walk: a frontier
    /// level per interior depth below the root and the arrival list, each
    /// [`CHUNK`] entries, whatever the transactions.
    fn rooted(mut self, root: u32) -> Arena {
        self.root = root;
        self.frontier = vec![(0, 0); (self.k - 1) * CHUNK];
        self.queued = vec![0; self.k + 1];
        self.arrivals = vec![0; CHUNK];
        self
    }

    /// Adds the leaf over the next `len` candidates of the leaf order,
    /// which starts at `start`, and returns its slot.
    fn leaf(&mut self, start: usize, len: usize) -> u32 {
        debug_assert_eq!(self.bounds.last(), Some(&(start as u32)));
        self.bounds.push((start + len) as u32);
        LEAF | (self.bounds.len() - 2) as u32
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
        let b = self.branching;
        let bucket = |id: u32| hash(candidates[id as usize * k + depth], b) as usize;
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
        self.bounds.len() - 1
    }

    #[cfg(test)]
    pub(super) fn occupied_leaves(&self) -> usize {
        self.bounds.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// The root slot, every node's slots and every leaf's candidate range.
    #[cfg(test)]
    pub(super) fn shape(&self) -> (u32, &[u32], Vec<(u32, u32)>) {
        let leaves = self.bounds.windows(2).map(|w| (w[0], w[1])).collect();
        (self.root, &self.slots, leaves)
    }

    /// Checks every leaf the batch reached against the batch, sweeping the
    /// leaves in leaf order: a candidate's count grows by the number of
    /// transactions that both reached its leaf and hold all its items, the
    /// popcount of the leaf's `visited` bits ANDed with each item's mask.
    /// Per candidate in leaf order, `rows` holds its row of `counts` and
    /// `mask_rows` (strided by `k`) the rows of `masks` of its items.
    /// Leaves `visited` zero for the next batch.
    pub(super) fn score(
        &self,
        rows: &[u32],
        mask_rows: &[u32],
        masks: &[Bits],
        counts: &mut [u64],
        visited: &mut [Bits],
    ) {
        let k = self.k;
        for (bounds, seen) in self.bounds.windows(2).zip(visited) {
            if *seen == [0; WORDS] {
                continue;
            }
            let seen = std::mem::take(seen);
            let (start, end) = (bounds[0] as usize, bounds[1] as usize);
            let candidates = mask_rows[start * k..end * k].chunks_exact(k);
            for (candidate, &row) in candidates.zip(&rows[start..end]) {
                // No early exit on an empty mask: the branch costs more
                // than the ANDs it would save.
                let hits = candidate.iter().fold(seen, |mut hits, &m| {
                    for (hit, word) in hits.iter_mut().zip(&masks[m as usize]) {
                        *hit &= word;
                    }
                    hits
                });
                counts[row as usize] += hits.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
            }
        }
    }
}

impl Arena {
    /// Where the walk of `titems` (sorted, at least `k` of them) starts:
    /// its first starting item `filter` owns, or `None` if it has none, so
    /// that the walk would reach no leaf and charge no work. A tree whose
    /// root is a leaf is reached by every such transaction, filter or not.
    pub(super) fn first_start(&self, titems: &[Item], filter: &OwnershipFilter) -> Option<usize> {
        if filter.is_all() || self.root & LEAF != 0 {
            return Some(0);
        }
        titems[..=titems.len() - self.k]
            .iter()
            .position(|&item| filter.allows_root(item))
    }

    /// The subset operation of Section II for one transaction of at least
    /// `k` items, from its starting item `titems[from]` on (see
    /// [`first_start`](Self::first_start)): charges `stats` the walk the
    /// model prices, and calls `first_arrival` with each leaf it reaches,
    /// which answers whether this is the transaction's first arrival there
    /// (only that one is charged a visit and the leaf's checks).
    pub(super) fn walk(
        &mut self,
        titems: &[Item],
        from: usize,
        filter: &OwnershipFilter,
        stats: &mut CounterStats,
        first_arrival: impl FnMut(usize) -> bool,
    ) {
        let b = self.branching;
        self.buckets.clear();
        if self.root & LEAF == 0 {
            self.buckets
                .extend(titems.iter().map(|&item| hash(item, b)));
        }
        let mut walk = Walk {
            slots: &self.slots,
            bounds: &self.bounds,
            buckets: &self.buckets,
            titems,
            k: self.k,
            branching: self.branching,
            filter,
            frontier: &mut self.frontier,
            queued: &mut self.queued,
            arrivals: &mut self.arrivals,
            arrived: 0,
            first_arrival,
            root_starts: 0,
            traversal_steps: 0,
            distinct_leaf_visits: 0,
            candidate_checks: 0,
        };
        if self.root & LEAF != 0 {
            walk.arrivals[0] = self.root & !LEAF;
            walk.arrived = 1;
        } else {
            walk.start(self.root, from);
        }
        walk.mark();
        stats.root_starts += walk.root_starts;
        stats.traversal_steps += walk.traversal_steps;
        stats.distinct_leaf_visits += walk.distinct_leaf_visits;
        stats.candidate_checks += walk.candidate_checks;
    }
}

/// One transaction's subset walk: the arena's parts borrowed side by side,
/// and the work it charges, summed here and added to the tree's ledger
/// once the walk is done.
struct Walk<'a, F> {
    slots: &'a [u32],
    bounds: &'a [u32],
    /// The hash bucket of each of the transaction's items.
    buckets: &'a [u32],
    /// The whole (sorted) transaction.
    titems: &'a [Item],
    k: usize,
    branching: usize,
    filter: &'a OwnershipFilter,
    frontier: &'a mut [(u32, u32)],
    queued: &'a mut [usize],
    arrivals: &'a mut [u32],
    arrived: usize,
    first_arrival: F,
    root_starts: u64,
    traversal_steps: u64,
    distinct_leaf_visits: u64,
    candidate_checks: u64,
}

impl<F: FnMut(usize) -> bool> Walk<'_, F> {
    /// The root, the one node that owns the filter's first-item test and
    /// the `root_starts` charge (a starting item needs `k − 1` items after
    /// it), then every level below it.
    fn start(&mut self, root: u32, from: usize) {
        let last = self.titems.len() - self.k;
        if self.filter.is_all() {
            self.root_starts += (last + 1 - from) as u64;
            self.chunked(0, root, from, last);
        } else {
            // IDD's bitmap check at the root: skip starting items whose
            // candidates live on other processors.
            for p in from..=last {
                if self.filter.allows_root(self.titems[p]) {
                    self.root_starts += 1;
                    self.chunked(0, root, p, p);
                }
            }
        }
        if self.queued[1] > 0 {
            self.level(1);
        }
    }

    /// Expands every entry queued at depth `d` (`1..k`), then the level
    /// below. Only a two-level filter tests second items, and only
    /// [`chunked`](Self::chunked) tests them: at depth 1 under such a
    /// filter, every entry goes through it.
    fn level(&mut self, d: usize) {
        let queued = std::mem::take(&mut self.queued[d]);
        // An entry at depth `d` needs `k − d` more items, its own included.
        let last = self.titems.len() - (self.k - d);
        let second = d == 1 && self.filter.prunes_second();
        let mut i = 0;
        loop {
            // At depth `k − 1` every child is a leaf.
            i = match (second, d + 1 == self.k) {
                (true, _) => i,
                (false, false) => self.fitting::<false>(d, i..queued, last),
                (false, true) => self.fitting::<true>(d, i..queued, last),
            };
            if i == queued {
                break;
            }
            let (node, start) = self.frontier[(d - 1) * CHUNK + i];
            self.chunked(d, node, start as usize, last);
            i += 1;
        }
        if self.queued[d + 1] > 0 {
            self.level(d + 1);
        }
    }

    /// Expands entries `entries` of level `d` over their items up to
    /// `last`, for as long as the next level and the arrival list have
    /// room for all of an entry's items, and returns the first entry that
    /// did not fit (or the end). With `LEAVES`, every child is a leaf.
    #[inline(always)]
    fn fitting<const LEAVES: bool>(
        &mut self,
        d: usize,
        entries: std::ops::Range<usize>,
        last: usize,
    ) -> usize {
        let (titems, buckets) = (self.titems, self.buckets);
        let (here, below) = self.frontier.split_at_mut(d * CHUNK);
        let mut lists = Lists {
            next: if LEAVES { &mut [] } else { &mut below[..CHUNK] },
            queued: self.queued[d + 1],
            arrivals: self.arrivals,
            arrived: self.arrived,
        };
        let mut steps = 0;
        let mut stop = entries.end;
        for i in entries {
            let (node, start) = here[(d - 1) * CHUNK + i];
            let start = start as usize;
            if start + CHUNK - lists.queued.max(lists.arrived) <= last {
                stop = i;
                break;
            }
            let slots = node_slots(self.slots, self.branching, node);
            let (items, buckets) = (&titems[start..=last], &buckets[start..=last]);
            steps += lists.expand::<LEAVES>(slots, start, items, buckets, |_| true);
        }
        self.traversal_steps += steps;
        self.queued[d + 1] = lists.queued;
        self.arrived = lists.arrived;
        stop
    }

    /// Expands node `node`, at depth `d`, over the items `start..=last` in
    /// chunks of as many items as the next level and the arrival list both
    /// have room for: a full next level is expanded, and full arrivals are
    /// marked, before the next chunk, so the walk's memory stays `k`
    /// chunks however many paths the transaction has.
    #[inline(never)]
    fn chunked(&mut self, d: usize, node: u32, start: usize, last: usize) {
        let (titems, buckets, filter) = (self.titems, self.buckets, self.filter);
        let second = d == 1 && filter.prunes_second();
        let first = titems[start.max(1) - 1];
        let allows = |item| !second || filter.allows_second(first, item);
        let slots = node_slots(self.slots, self.branching, node);
        let mut from = start;
        while from <= last {
            let room = CHUNK - self.queued[d + 1].max(self.arrived);
            if room == 0 {
                if self.queued[d + 1] == CHUNK {
                    self.level(d + 1);
                }
                if self.arrived == CHUNK {
                    self.mark();
                }
                continue;
            }
            let to = last.min(from + room - 1);
            let leaves = d + 1 == self.k;
            let mut lists = Lists {
                next: if leaves {
                    &mut []
                } else {
                    &mut self.frontier[d * CHUNK..][..CHUNK]
                },
                queued: self.queued[d + 1],
                arrivals: self.arrivals,
                arrived: self.arrived,
            };
            let (items, buckets) = (&titems[from..=to], &buckets[from..=to]);
            self.traversal_steps += if leaves {
                lists.expand::<true>(slots, from, items, buckets, allows)
            } else {
                lists.expand::<false>(slots, from, items, buckets, allows)
            };
            self.queued[d + 1] = lists.queued;
            self.arrived = lists.arrived;
            from = to + 1;
        }
    }

    /// Charges the arrivals so far: a leaf's first arrival in this
    /// transaction is one `t_check` visit and a comparison per candidate
    /// there; a revisit is free. Without a branch: the charges are added
    /// times 0 or 1.
    fn mark(&mut self) {
        for &leaf in &self.arrivals[..self.arrived] {
            let leaf = leaf as usize;
            let first = u64::from((self.first_arrival)(leaf));
            let size = self.bounds[leaf + 1] - self.bounds[leaf];
            self.distinct_leaf_visits += first;
            self.candidate_checks += first * u64::from(size);
        }
        self.arrived = 0;
    }
}

/// The child slots of interior node `node`.
#[inline(always)]
fn node_slots(slots: &[u32], branching: usize, node: u32) -> &[u32] {
    let base = node as usize * branching;
    &slots[base..base + branching]
}

/// Where one expansion puts what it reaches: interior children queued
/// for the next level, leaves on the arrival list.
struct Lists<'l> {
    next: &'l mut [(u32, u32)],
    queued: usize,
    arrivals: &'l mut [u32],
    arrived: usize,
}

impl Lists<'_> {
    /// Descends from a node with child slots `slots` by the bucket of each
    /// of `items` (from the transaction's position `start` on) that
    /// `allows` admits, and returns the steps: each child that exists is
    /// one; a leaf joins the arrivals and an interior node the next level,
    /// with the items after its own. Without a branch per item: both lists
    /// are always written, and each keeps the entry only when the child is
    /// of its kind. With `LEAVES` (a node at depth `k − 1`) every child is
    /// a leaf and the next level is not written. The caller leaves room
    /// for every item.
    #[inline(always)]
    fn expand<const LEAVES: bool>(
        &mut self,
        slots: &[u32],
        start: usize,
        items: &[Item],
        buckets: &[u32],
        allows: impl Fn(Item) -> bool,
    ) -> u64 {
        let (mut queued, mut arrived) = (self.queued, self.arrived);
        let mut steps = 0;
        for (p, (&item, &bucket)) in (start as u32 + 1..).zip(items.iter().zip(buckets)) {
            if !allows(item) {
                continue;
            }
            let child = slots[bucket as usize];
            let exists = child != NONE;
            steps += u64::from(exists);
            self.arrivals[arrived] = child & !LEAF;
            if LEAVES {
                arrived += usize::from(exists);
                continue;
            }
            arrived += usize::from(exists & (child & LEAF != 0));
            self.next[queued] = (child, p);
            queued += usize::from(child & LEAF == 0);
        }
        self.queued = queued;
        self.arrived = arrived;
        steps
    }
}

/// The recursive walk the one above replaced, kept as its reference: one
/// function for every depth, the filter tested by depth, `%` for the
/// bucket, the ledger charged step by step. It sets the visit bit of the
/// batch's `j`-th transaction in the leaves it reaches, as the full tree's
/// walk does, so [`Arena::score`] scores either.
#[cfg(test)]
pub(super) struct ReferenceWalk<'a> {
    pub arena: &'a Arena,
    pub visited: &'a mut [Bits],
    pub stats: &'a mut CounterStats,
    pub titems: &'a [Item],
    pub k: usize,
    pub j: usize,
    pub filter: &'a OwnershipFilter,
}

#[cfg(test)]
impl ReferenceWalk<'_> {
    pub(super) fn run(&mut self) {
        let b = self.arena.branching;
        let buckets: Vec<u32> = self
            .titems
            .iter()
            .map(|&item| (item.index() % b) as u32)
            .collect();
        self.descend(&buckets, self.arena.root, 0, 0, None);
    }

    fn descend(
        &mut self,
        buckets: &[u32],
        node: u32,
        start: usize,
        depth: usize,
        path_first: Option<Item>,
    ) {
        if node & LEAF != 0 {
            self.visit_leaf((node & !LEAF) as usize);
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
            let child = self.arena.slots[base + buckets[p] as usize];
            if child != NONE {
                self.stats.traversal_steps += 1;
                let first = if depth == 0 { Some(item) } else { path_first };
                self.descend(buckets, child, p + 1, depth + 1, first);
            }
        }
    }

    fn visit_leaf(&mut self, index: usize) {
        let (word, bit) = bit(self.j);
        let visited = &mut self.visited[index][word];
        if *visited & bit != 0 {
            return;
        }
        *visited |= bit;
        let bounds = &self.arena.bounds;
        self.stats.distinct_leaf_visits += 1;
        self.stats.candidate_checks += u64::from(bounds[index + 1] - bounds[index]);
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
