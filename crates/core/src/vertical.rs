//! Vertical (tid-bitmap) candidate counting — the Eclat-style backend.
//!
//! The horizontal backends (hash tree, trie) walk every transaction's
//! k-subsets through a candidate structure, so their cost scales with
//! `transactions × subsets`. The vertical backend inverts the loop: a
//! batch of transactions is first pivoted into per-item tid sets (which
//! transactions contain item `i`), and a candidate's support is the size
//! of the intersection of its members' tid sets. Candidates are evaluated
//! in their table's row order, which is lexicographic (the seam's one input
//! contract), with a prefix stack, so a k-candidate costs one
//! AND + popcount against its cached (k−1)-prefix — shared prefixes are
//! intersected once, exactly like Eclat's equivalence-class processing
//! (Zaki et al., the "entirely different nature" algorithms the paper
//! cites in Section III-E).
//!
//! Tid sets are adaptive: high-density items become dense `u64` bitmap
//! blocks intersected with the wide-word kernels of
//! `bitmap::words`; low-density items stay sorted `u32` tid
//! lists intersected by a merge, galloping for skewed sizes (a bitmap
//! with a handful of set bits would waste both memory and sweep time).
//!
//! The pivot finds each item occurrence's candidate item through the
//! counter's [`ItemIndex`] and lays the batch out by a counting sort:
//! every rank's tids in one vector, rank after rank, and the dense ranks'
//! blocks in another. Those vectors and the prefix stack's are kept from
//! batch to batch, so once they have grown to a batch's size, counting a
//! batch allocates nothing.
//!
//! Ledger mapping onto [`CounterStats`](crate::counter::CounterStats): each item occurrence scanned
//! while pivoting a batch is a `traversal_steps` unit, each
//! filter-admitted candidate is one `root_starts`, its final evaluation
//! one `distinct_leaf_visits` + one `candidate_checks`, and — the term
//! the other backends never emit — every `u64` word touched by an
//! AND/popcount (element probes, for sparse operands) accrues
//! `intersection_words`, which the virtual-time model prices at `t_word`.

use crate::bitmap::words;
use crate::counter::{CandidateCounter, CandidateTable};
use crate::hashtree::OwnershipFilter;
use crate::item::{Item, ItemIndex};
use crate::transaction::Transaction;

/// "A sparse tid set" in [`Pivot::block_of`].
const SPARSE: u32 = u32::MAX;

/// A set of transaction positions within one batch, lent from the
/// counter's buffers, in the cheaper of the two representations for its
/// density.
#[derive(Debug, Clone, Copy)]
enum Tids<'a> {
    /// Bit per transaction, packed 64 per word.
    Dense(&'a [u64]),
    /// Ascending transaction positions.
    Sparse(&'a [u32]),
}

impl Tids<'_> {
    /// `self ∩ other` into `out` (dense when both are dense), plus the
    /// touched-unit count (words for dense operands, element probes for
    /// sparse ones).
    fn intersect_into(self, other: Tids<'_>, out: &mut TidBuf) -> u64 {
        match (self, other) {
            (Tids::Dense(a), Tids::Dense(b)) => {
                out.dense = true;
                words::and_into(&mut out.words, a, b);
                a.len() as u64
            }
            (Tids::Dense(block), Tids::Sparse(list)) | (Tids::Sparse(list), Tids::Dense(block)) => {
                out.dense = false;
                out.tids.clear();
                let held = list.iter().filter(|&&t| words::test_bit(block, t as usize));
                out.tids.extend(held);
                list.len() as u64
            }
            (Tids::Sparse(a), Tids::Sparse(b)) => {
                out.dense = false;
                out.tids.clear();
                intersect_sorted(a, b, |t| out.tids.push(t));
                a.len().min(b.len()) as u64
            }
        }
    }

    /// `|self ∩ other|` without materializing, plus the touched units.
    fn intersect_count(self, other: Tids<'_>) -> (u64, u64) {
        match (self, other) {
            (Tids::Dense(a), Tids::Dense(b)) => (words::and_popcount(a, b), a.len() as u64),
            (Tids::Dense(block), Tids::Sparse(list)) | (Tids::Sparse(list), Tids::Dense(block)) => {
                let count = list
                    .iter()
                    .filter(|&&t| words::test_bit(block, t as usize))
                    .count() as u64;
                (count, list.len() as u64)
            }
            (Tids::Sparse(a), Tids::Sparse(b)) => {
                let mut count = 0;
                intersect_sorted(a, b, |_| count += 1);
                (count, a.len().min(b.len()) as u64)
            }
        }
    }

    /// Cardinality plus the touched units.
    fn len_counted(self) -> (u64, u64) {
        match self {
            Tids::Dense(block) => (words::popcount(block), block.len() as u64),
            Tids::Sparse(list) => (list.len() as u64, list.len() as u64),
        }
    }
}

/// An owned tid set whose buffers are kept from batch to batch: one level
/// of the prefix stack.
#[derive(Debug, Clone, Default)]
struct TidBuf {
    dense: bool,
    words: Vec<u64>,
    tids: Vec<u32>,
}

impl TidBuf {
    fn view(&self) -> Tids<'_> {
        if self.dense {
            Tids::Dense(&self.words)
        } else {
            Tids::Sparse(&self.tids)
        }
    }
}

/// One batch pivoted into per-rank tid sets, in buffers kept from batch to
/// batch: every rank's ascending tid list in one vector, rank after rank,
/// and the bitmap blocks of the dense ranks in another.
#[derive(Debug, Clone, Default)]
struct Pivot {
    /// Per slot (rank + 1), where its tids start in `tids`; the last entry
    /// ends the last rank's. Slot 0 counts the occurrences of items no
    /// candidate holds while pivoting, and is then empty.
    starts: Vec<u32>,
    /// Per slot, the next free position of its tids while pivoting.
    fill: Vec<u32>,
    tids: Vec<u32>,
    /// Per rank, the offset of its block in `blocks`, or [`SPARSE`].
    block_of: Vec<u32>,
    blocks: Vec<u64>,
    /// Words per block: one bit per transaction of the batch.
    block_words: usize,
}

impl Pivot {
    /// Pivots `transactions`, finding their items through `index` (which
    /// ranks `ranks` items): returns the item occurrences scanned.
    fn build(&mut self, index: &ItemIndex, ranks: usize, transactions: &[Transaction]) -> u64 {
        let num_tids = transactions.len();
        let Pivot {
            starts,
            fill,
            tids,
            block_of,
            blocks,
            block_words,
        } = self;
        starts.clear();
        starts.resize(ranks + 2, 0);
        let mut scanned = 0;
        for t in transactions {
            scanned += t.items().len() as u64;
            for &item in t.items() {
                starts[index.slot(item) + 1] += 1;
            }
        }
        // Occurrences per slot → where each slot's run ends (a prefix
        // sum), with slot 0's run of unindexed items taken out.
        starts[1] = 0;
        for slot in 1..starts.len() {
            starts[slot] += starts[slot - 1];
        }
        let held = starts[ranks + 1] as usize;
        fill.clear();
        fill.extend_from_slice(starts);
        room(tids, held);
        tids.resize(held, 0);
        for (pos, t) in (0u32..).zip(transactions) {
            for &item in t.items() {
                let slot = index.slot(item);
                if slot != 0 {
                    tids[fill[slot] as usize] = pos;
                    fill[slot] += 1;
                }
            }
        }
        // Dense once the bitmap is no larger than the `u32` list (32 tids
        // per 64-bit word break even).
        *block_words = words::words_for(num_tids);
        block_of.clear();
        let mut dense = 0u32;
        for rank in 0..ranks {
            let len = (starts[rank + 2] - starts[rank + 1]) as usize;
            if len * 32 >= num_tids {
                block_of.push(dense * *block_words as u32);
                dense += 1;
            } else {
                block_of.push(SPARSE);
            }
        }
        room(blocks, dense as usize * *block_words);
        blocks.resize(dense as usize * *block_words, 0);
        for (rank, &at) in block_of.iter().enumerate().filter(|&(_, &at)| at != SPARSE) {
            let block = &mut blocks[at as usize..][..*block_words];
            for &t in &tids[starts[rank + 1] as usize..starts[rank + 2] as usize] {
                words::set_bit(block, t as usize);
            }
        }
        scanned
    }

    /// The tid set of the item of rank `rank`.
    fn base(&self, rank: usize) -> Tids<'_> {
        match self.block_of[rank] {
            SPARSE => Tids::Sparse(&self.tids[self.starts[rank + 1] as usize..][..self.len(rank)]),
            at => Tids::Dense(&self.blocks[at as usize..][..self.block_words]),
        }
    }

    fn len(&self, rank: usize) -> usize {
        (self.starts[rank + 2] - self.starts[rank + 1]) as usize
    }
}

/// Clears `buf` and makes room for `len` elements, in powers of two, so
/// that batches of about one size share one allocation.
fn room<T>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    if buf.capacity() < len {
        buf.reserve(len.next_power_of_two());
    }
}

/// The vertical counting backend for candidates of a fixed size `k`.
#[derive(Debug, Clone)]
pub(crate) struct VerticalCounter {
    /// The candidates, in row order: lexicographic, so neighbours share
    /// prefixes.
    table: CandidateTable,
    /// Item id → rank of the candidate items.
    index: ItemIndex,
    /// Number of ranked items.
    ranks: usize,
    pivot: Pivot,
    /// The prefix stack: `levels[d]`, for `d ≥ 1`, caches the
    /// intersection of the current candidate's first `d + 1` items (the
    /// first item's set is the pivot's own, and `levels[0]` stays empty).
    levels: Vec<TidBuf>,
}

impl VerticalCounter {
    pub(crate) fn from_table(table: CandidateTable) -> Self {
        let (index, items) = ItemIndex::distinct(&table.items);
        let levels = vec![TidBuf::default(); table.k.saturating_sub(1)];
        VerticalCounter {
            table,
            index,
            ranks: items.len(),
            pivot: Pivot::default(),
            levels,
        }
    }
}

impl CandidateCounter for VerticalCounter {
    fn table(&self) -> &CandidateTable {
        &self.table
    }

    fn table_mut(&mut self) -> &mut CandidateTable {
        &mut self.table
    }

    /// Pivots one batch into per-item tid sets and evaluates every
    /// candidate against it, accumulating into the per-candidate counts.
    /// The filter prunes whole candidates before any intersection — a
    /// candidate is evaluated iff its first item passes the root filter
    /// and its (first, second) pair passes the depth-1 filter, exactly
    /// the paths a horizontal subset walk would admit. Once its buffers
    /// have grown to a batch's size, a batch allocates nothing.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        let VerticalCounter {
            table,
            index,
            ranks,
            pivot,
            levels,
        } = self;
        let CandidateTable {
            k,
            items: candidates,
            counts,
            stats,
            ..
        } = table;
        if counts.is_empty() || transactions.is_empty() {
            return;
        }
        let k = *k;
        stats.transactions += transactions.len() as u64;
        stats.traversal_steps += pivot.build(index, *ranks, transactions);
        for level in levels.iter_mut().skip(1) {
            room(&mut level.words, pivot.block_words);
            room(&mut level.tids, transactions.len());
        }
        let rank = |item: Item| index.rank(item).expect("candidate items are indexed") as usize;

        // Sweep candidates lexicographically, keeping the longest cached
        // prefix each shares with the last one evaluated, `prev`.
        let mut prev: &[Item] = &[];
        for (items, count) in candidates.chunks_exact(k).zip(counts.iter_mut()) {
            let first = items[0];
            if !filter.allows_root(first) {
                continue;
            }
            if k >= 2 && !filter.allows_second(first, items[1]) {
                continue;
            }
            stats.root_starts += 1;
            let cached = prev.iter().zip(&items[..k - 1]).take_while(|(a, b)| a == b);
            for depth in cached.count().max(1)..k - 1 {
                let (lower, upper) = levels.split_at_mut(depth);
                let below = match depth {
                    1 => pivot.base(rank(items[0])),
                    _ => lower[depth - 1].view(),
                };
                let work = below.intersect_into(pivot.base(rank(items[depth])), &mut upper[0]);
                stats.intersection_words += work;
            }
            prev = items;
            // Final step: count without materializing.
            let last = pivot.base(rank(items[k - 1]));
            let (hits, work) = match k {
                1 => last.len_counted(),
                2 => pivot.base(rank(items[0])).intersect_count(last),
                _ => levels[k - 2].view().intersect_count(last),
            };
            stats.intersection_words += work;
            stats.distinct_leaf_visits += 1;
            stats.candidate_checks += 1;
            *count += hits;
        }
    }
}

/// Hands `hit` each id of two ascending lists that both hold (galloping
/// for skewed sizes): the kernel of the sparse tid sets of low-density
/// items.
fn intersect_sorted(a: &[u32], b: &[u32], mut hit: impl FnMut(u32)) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Gallop when the size ratio is extreme; merge otherwise.
    if large.len() / small.len().max(1) >= 16 {
        let mut lo = 0;
        for &x in small {
            match large[lo..].binary_search(&x) {
                Ok(pos) => {
                    hit(x);
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= large.len() {
                break;
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    hit(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::ItemBitmap;
    use crate::itemset::ItemSet;
    use rand::prelude::*;
    use std::collections::HashSet;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn build(k: usize, candidates: Vec<ItemSet>) -> VerticalCounter {
        VerticalCounter::from_table(CandidateTable::new(k, candidates))
    }

    #[test]
    fn intersect_handles_galloping_path() {
        // Ratio >= 16 triggers the binary-search path.
        let small = vec![5u32, 100, 900];
        let large: Vec<u32> = (0..1000).collect();
        let both = |a: &[u32], b: &[u32]| {
            let mut out = Vec::new();
            intersect_sorted(a, b, |t| out.push(t));
            out
        };
        assert_eq!(both(&small, &large), small);
        let disjoint: Vec<u32> = (1000..2000).collect();
        assert!(both(&small, &disjoint).is_empty());
    }

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    const ALL: fn() -> OwnershipFilter = OwnershipFilter::all;

    crate::counter::tests::run_on! { Vertical:
        counts_paper_example => paper_example,
        equivalent_to_hash_tree_on_random_data => brute_force,
        singleton_candidates_count_supports => brute_force,
        count_vector_round_trips => bookkeeping,
        #[should_panic(expected = "wrong size")]
        arity_checked => wrong_size,
        first_item_filter_prunes_candidates => filters_prune,
        two_level_filter_prunes_second_items => filters_prune,
        stats_ledger_accrues_and_resets => ledger_accrues_and_resets,
        empty_counter_counts_no_transactions => empty_and_short,
        largest_legal_item_id_is_a_countable_candidate_item => largest_item_id,
        a_page_split_anywhere_counts_what_it_does_whole => page_split,
        batched_counting_accumulates => page_split,
    }

    /// The vertical counter's own ledger: a traversal step per item of
    /// each transaction it pivots, and a root start, a leaf visit and a
    /// check per candidate it admits; an intersection is charged the words
    /// of a bitmap, or the shorter list's elements. An item's tids are a
    /// bitmap once it is no larger than their list.
    #[test]
    fn the_ledger_charges_a_probe_per_item_and_a_check_per_candidate() {
        let mut vc = build(2, vec![set(&[1, 2]), set(&[1, 3])]);
        vc.count_all(&[tx(0, &[1, 2, 3]), tx(1, &[9])], &ALL());
        let s = vc.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.root_starts, 2, "both candidates admitted");
        assert_eq!(s.distinct_leaf_visits, 2);
        assert_eq!(s.candidate_checks, 2);
        assert_eq!(s.traversal_steps, 4, "one probe per item occurrence");
        assert!(s.intersection_words > 0, "intersections were performed");

        // Over 64 transactions, items 1 and 2 in two each: one bitmap word
        // each (a list of two `u32`s is as large). Over 100, item 1 in
        // three and item 2 in two: lists.
        for (n, with_one, want) in [(64, 2, 1), (100, 3, 2)] {
            let txs: Vec<Transaction> = (0..n)
                .map(|tid| match tid {
                    0 | 1 => tx(tid, &[1, 2]),
                    tid if tid < with_one => tx(tid, &[1]),
                    tid => tx(tid, &[]),
                })
                .collect();
            let mut vc = build(2, vec![set(&[1, 2])]);
            vc.count_all(&txs, &ALL());
            assert_eq!(vc.count_vector(), [2], "{n} transactions");
            assert_eq!(vc.stats().intersection_words, want, "{n} transactions");
        }
    }

    /// Both tid-set representations and their mixed intersections agree
    /// with brute force: item 0 is near-universal (dense), high items are
    /// rare (sparse).
    #[test]
    fn dense_and_sparse_paths_agree_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(37);
        let txs: Vec<Transaction> = (0..400)
            .map(|tid| {
                let mut ids: Vec<u32> = vec![0];
                for i in 1..40u32 {
                    if rng.gen_range(0..i + 1) == 0 {
                        ids.push(i);
                    }
                }
                Transaction::new(tid, ids.into_iter().map(Item).collect())
            })
            .collect();
        let mut cands: Vec<ItemSet> = (0..60)
            .map(|_| {
                let k = 2;
                let mut ids: Vec<u32> = (0..40).collect();
                ids.shuffle(&mut rng);
                set(&{
                    let mut v = ids[..k].to_vec();
                    v.sort_unstable();
                    v
                })
            })
            .collect();
        cands.push(set(&[0, 1])); // dense ∧ mid-density
        cands.push(set(&[38, 39])); // sparse ∧ sparse
        cands.sort();
        cands.dedup();
        let mut vc = build(2, cands.clone());
        vc.count_all(&txs, &ALL());
        for c in &cands {
            let want = txs.iter().filter(|t| t.contains_set(c)).count() as u64;
            assert_eq!(vc.count_of(c), Some(want), "candidate {c}");
        }
    }

    /// The prefix stack must re-derive shared prefixes correctly even
    /// when the filter skips candidates between two sharers.
    #[test]
    fn prefix_sharing_survives_filtered_gaps() {
        let cands = vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 4]),
            set(&[1, 3, 4]),
            set(&[2, 3, 4]),
        ];
        let txs = vec![
            tx(0, &[1, 2, 3, 4]),
            tx(1, &[1, 2, 4]),
            tx(2, &[1, 3, 4]),
            tx(3, &[2, 3, 4]),
        ];
        // Drop the middle sharer's path with a two-level filter that only
        // admits (1,2) and (2,3) pairs.
        let owned_first = ItemBitmap::new(10);
        let pairs: HashSet<(Item, Item)> = [(Item(1), Item(2)), (Item(2), Item(3))]
            .into_iter()
            .collect();
        let filter = OwnershipFilter::two_level(owned_first, pairs);
        let mut vc = build(3, cands);
        vc.count_all(&txs, &filter);
        assert_eq!(vc.count_of(&set(&[1, 2, 3])), Some(1));
        assert_eq!(vc.count_of(&set(&[1, 2, 4])), Some(2));
        assert_eq!(vc.count_of(&set(&[1, 3, 4])), Some(0), "filtered out");
        assert_eq!(vc.count_of(&set(&[2, 3, 4])), Some(2));
    }
}
