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
use crate::item::Item;
use crate::transaction::Transaction;

/// A set of transaction positions within one batch, in the cheaper of the
/// two representations for its density.
#[derive(Debug, Clone)]
enum TidSet {
    /// Bit per transaction, packed 64 per word.
    Dense(Vec<u64>),
    /// Ascending transaction positions.
    Sparse(Vec<u32>),
}

impl TidSet {
    /// Chooses the representation: dense once the bitmap is no larger
    /// than the `u32` list (32 tids per 64-bit word break even).
    fn from_list(tids: Vec<u32>, num_tids: usize) -> TidSet {
        if tids.len() * 32 >= num_tids {
            let mut block = vec![0u64; words::words_for(num_tids)];
            for &t in &tids {
                words::set_bit(&mut block, t as usize);
            }
            TidSet::Dense(block)
        } else {
            TidSet::Sparse(tids)
        }
    }

    /// Intersection plus the touched-unit count (words for dense
    /// operands, element probes for sparse ones).
    fn intersect(&self, other: &TidSet) -> (TidSet, u64) {
        match (self, other) {
            (TidSet::Dense(a), TidSet::Dense(b)) => {
                (TidSet::Dense(words::and(a, b)), a.len() as u64)
            }
            (TidSet::Dense(block), TidSet::Sparse(list))
            | (TidSet::Sparse(list), TidSet::Dense(block)) => {
                let out: Vec<u32> = list
                    .iter()
                    .copied()
                    .filter(|&t| words::test_bit(block, t as usize))
                    .collect();
                (TidSet::Sparse(out), list.len() as u64)
            }
            (TidSet::Sparse(a), TidSet::Sparse(b)) => {
                let work = a.len().min(b.len()) as u64;
                (TidSet::Sparse(intersect_sorted(a, b)), work)
            }
        }
    }

    /// `|self ∩ other|` without materializing, plus the touched units.
    fn intersect_count(&self, other: &TidSet) -> (u64, u64) {
        match (self, other) {
            (TidSet::Dense(a), TidSet::Dense(b)) => (words::and_popcount(a, b), a.len() as u64),
            (TidSet::Dense(block), TidSet::Sparse(list))
            | (TidSet::Sparse(list), TidSet::Dense(block)) => {
                let count = list
                    .iter()
                    .filter(|&&t| words::test_bit(block, t as usize))
                    .count() as u64;
                (count, list.len() as u64)
            }
            (TidSet::Sparse(a), TidSet::Sparse(b)) => {
                let work = a.len().min(b.len()) as u64;
                (intersect_sorted(a, b).len() as u64, work)
            }
        }
    }

    /// Cardinality plus the touched units.
    fn len_counted(&self) -> (u64, u64) {
        match self {
            TidSet::Dense(block) => (words::popcount(block), block.len() as u64),
            TidSet::Sparse(list) => (list.len() as u64, list.len() as u64),
        }
    }
}

/// The vertical counting backend for candidates of a fixed size `k`.
#[derive(Debug, Clone)]
pub(crate) struct VerticalCounter {
    /// The candidates, in row order: lexicographic, so neighbours share
    /// prefixes.
    table: CandidateTable,
    /// Distinct items appearing in any candidate, ascending.
    items: Vec<Item>,
}

impl VerticalCounter {
    pub(crate) fn from_table(table: CandidateTable) -> Self {
        let mut items = table.items.clone();
        items.sort_unstable();
        items.dedup();
        VerticalCounter { table, items }
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
    /// the paths a horizontal subset walk would admit.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        let CandidateTable {
            k,
            items: candidates,
            counts,
            stats,
            ..
        } = &mut self.table;
        if counts.is_empty() || transactions.is_empty() {
            return;
        }
        stats.transactions += transactions.len() as u64;
        let num_tids = transactions.len();
        // Pivot: horizontal batch → per-item tid lists (ascending by
        // construction — positions are visited in order).
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); self.items.len()];
        for (pos, t) in transactions.iter().enumerate() {
            for item in t.items() {
                stats.traversal_steps += 1;
                if let Ok(slot) = self.items.binary_search(item) {
                    lists[slot].push(pos as u32);
                }
            }
        }
        let base: Vec<TidSet> = lists
            .into_iter()
            .map(|l| TidSet::from_list(l, num_tids))
            .collect();
        let base_of = |item: Item| -> &TidSet {
            let slot = self
                .items
                .binary_search(&item)
                .expect("candidate items are indexed");
            &base[slot]
        };

        // Sweep candidates lexicographically; `stack[d]` caches the
        // intersection of the current candidate's first `d + 1` items.
        let mut stack: Vec<(Item, TidSet)> = Vec::new();
        for (items, count) in candidates.chunks_exact(*k).zip(counts.iter_mut()) {
            let first = items[0];
            if !filter.allows_root(first) {
                continue;
            }
            if items.len() >= 2 && !filter.allows_second(first, items[1]) {
                continue;
            }
            stats.root_starts += 1;
            // Keep the longest cached prefix this candidate shares with
            // its predecessor.
            let shared = stack
                .iter()
                .zip(items.iter().take(items.len() - 1))
                .take_while(|((cached, _), item)| cached == *item)
                .count();
            stack.truncate(shared);
            while stack.len() < items.len() - 1 {
                let depth = stack.len();
                let item = items[depth];
                let ts = if depth == 0 {
                    base_of(item).clone()
                } else {
                    let (ts, work) = stack[depth - 1].1.intersect(base_of(item));
                    stats.intersection_words += work;
                    ts
                };
                stack.push((item, ts));
            }
            // Final step: count without materializing.
            let last = items[items.len() - 1];
            let (hits, work) = if items.len() == 1 {
                base_of(last).len_counted()
            } else {
                stack[items.len() - 2].1.intersect_count(base_of(last))
            };
            stats.intersection_words += work;
            stats.distinct_leaf_visits += 1;
            stats.candidate_checks += 1;
            *count += hits;
        }
    }
}

/// Intersection of two ascending id lists (galloping for skewed sizes):
/// the kernel of the sparse tid sets of low-density items.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Gallop when the size ratio is extreme; merge otherwise.
    if large.len() / small.len().max(1) >= 16 {
        let mut out = Vec::with_capacity(small.len());
        let mut lo = 0;
        for &x in small {
            match large[lo..].binary_search(&x) {
                Ok(pos) => {
                    out.push(x);
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= large.len() {
                break;
            }
        }
        out
    } else {
        let mut out = Vec::with_capacity(small.len());
        let (mut i, mut j) = (0, 0);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::ItemBitmap;
    use crate::counter::CounterStats;
    use crate::hashtree::{HashTree, HashTreeParams};
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
        assert_eq!(intersect_sorted(&small, &large), small);
        let disjoint: Vec<u32> = (1000..2000).collect();
        assert!(intersect_sorted(&small, &disjoint).is_empty());
    }

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    const ALL: fn() -> OwnershipFilter = OwnershipFilter::all;

    #[test]
    fn counts_paper_example() {
        let cands = vec![
            set(&[1, 2, 5]),
            set(&[1, 3, 6]),
            set(&[1, 4, 5]),
            set(&[3, 5, 6]),
        ];
        let mut vc = build(3, cands);
        vc.count_all(&[tx(0, &[1, 2, 3, 5, 6])], &ALL());
        assert_eq!(vc.count_of(&set(&[1, 2, 5])), Some(1));
        assert_eq!(vc.count_of(&set(&[1, 3, 6])), Some(1));
        assert_eq!(vc.count_of(&set(&[3, 5, 6])), Some(1));
        assert_eq!(vc.count_of(&set(&[1, 4, 5])), Some(0));
        assert_eq!(vc.count_of(&set(&[9, 9, 9])), None);
    }

    #[test]
    fn equivalent_to_hash_tree_on_random_data() {
        let mut rng = StdRng::seed_from_u64(29);
        for trial in 0..10 {
            let k = 1 + trial % 4;
            let mut cands: Vec<ItemSet> = (0..120)
                .map(|_| {
                    let mut ids: Vec<u32> = (0..25).collect();
                    ids.shuffle(&mut rng);
                    set(&ids[..k])
                })
                .collect();
            cands.sort();
            cands.dedup();
            let txs: Vec<Transaction> = (0..80)
                .map(|tid| {
                    let len = rng.gen_range(0..=12);
                    let mut ids: Vec<u32> = (0..25).collect();
                    ids.shuffle(&mut rng);
                    tx(tid, &ids[..len])
                })
                .collect();
            let mut vc = build(k, cands.clone());
            vc.count_all(&txs, &ALL());
            let mut tree = HashTree::build(k, HashTreeParams::default(), cands.clone());
            tree.count_all(&txs, &ALL());
            for c in &cands {
                assert_eq!(vc.count_of(c), tree.count_of(c), "candidate {c}");
            }
        }
    }

    /// Splitting one batch into many must not change any count — the
    /// pivot is per batch but the counts accumulate.
    #[test]
    fn batched_counting_accumulates() {
        let mut rng = StdRng::seed_from_u64(31);
        let cands: Vec<ItemSet> = vec![set(&[0, 1]), set(&[0, 2]), set(&[1, 2]), set(&[3, 4])];
        let txs: Vec<Transaction> = (0..50)
            .map(|tid| {
                let len = rng.gen_range(0..=5);
                let mut ids: Vec<u32> = (0..6).collect();
                ids.shuffle(&mut rng);
                tx(tid, &ids[..len])
            })
            .collect();
        let mut whole = build(2, cands.clone());
        whole.count_all(&txs, &ALL());
        let mut paged = build(2, cands);
        for chunk in txs.chunks(7) {
            paged.count_all(chunk, &ALL());
        }
        assert_eq!(whole.count_vector(), paged.count_vector());
    }

    #[test]
    fn first_item_filter_prunes_candidates() {
        let cands = vec![set(&[1, 2]), set(&[3, 4]), set(&[5, 6])];
        let mut vc = build(2, cands);
        let filter = OwnershipFilter::first_item(ItemBitmap::from_items(10, [Item(3)]));
        vc.count_all(&[tx(0, &[1, 2, 3, 4, 5, 6])], &filter);
        assert_eq!(vc.count_of(&set(&[1, 2])), Some(0));
        assert_eq!(vc.count_of(&set(&[3, 4])), Some(1));
        assert_eq!(vc.count_of(&set(&[5, 6])), Some(0));
        // Exactly one candidate was admitted past the bitmap.
        assert_eq!(vc.stats().root_starts, 1);
    }

    #[test]
    fn two_level_filter_prunes_second_items() {
        let cands = vec![set(&[1, 2, 3]), set(&[4, 5, 8]), set(&[4, 6, 8])];
        let mut vc = build(3, cands);
        let owned_first = ItemBitmap::from_items(10, [Item(1)]);
        let pairs: HashSet<(Item, Item)> = [(Item(4), Item(5))].into_iter().collect();
        let filter = OwnershipFilter::two_level(owned_first, pairs);
        vc.count_all(&[tx(0, &[1, 2, 3, 4, 5, 6, 8])], &filter);
        assert_eq!(vc.count_of(&set(&[1, 2, 3])), Some(1));
        assert_eq!(vc.count_of(&set(&[4, 5, 8])), Some(1));
        assert_eq!(vc.count_of(&set(&[4, 6, 8])), Some(0));
    }

    #[test]
    fn stats_ledger_accrues_and_resets() {
        let mut vc = build(2, vec![set(&[1, 2]), set(&[1, 3])]);
        assert_eq!(vc.stats().inserts, 2);
        vc.count_all(&[tx(0, &[1, 2, 3]), tx(1, &[9])], &ALL());
        let s = vc.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.root_starts, 2, "both candidates admitted");
        assert_eq!(s.distinct_leaf_visits, 2);
        assert_eq!(s.candidate_checks, 2);
        assert_eq!(s.traversal_steps, 4, "one probe per item occurrence");
        assert!(s.intersection_words > 0, "intersections were performed");
        vc.reset_stats();
        assert_eq!(vc.stats(), CounterStats::default());
        assert_eq!(vc.count_of(&set(&[1, 2])), Some(1));
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

    #[test]
    fn singleton_candidates_count_supports() {
        let mut vc = build(1, vec![set(&[3]), set(&[7])]);
        vc.count_all(&[tx(0, &[3]), tx(1, &[3, 7]), tx(2, &[3])], &ALL());
        assert_eq!(vc.frequent(3), vec![(set(&[3]), 3)]);
        assert_eq!(vc.frequent(1).len(), 2);
    }

    #[test]
    fn count_vector_round_trips() {
        let mut vc = build(2, vec![set(&[1, 2]), set(&[2, 3])]);
        vc.count_all(&[tx(0, &[1, 2]), tx(1, &[1, 2, 3])], &ALL());
        assert_eq!(vc.count_vector(), vec![2, 1]);
        vc.set_count_vector(&[7, 9]);
        assert_eq!(vc.count_of(&set(&[1, 2])), Some(7));
        assert_eq!(vc.count_of(&set(&[2, 3])), Some(9));
    }

    #[test]
    #[should_panic(expected = "count vector length mismatch")]
    fn count_vector_arity_checked() {
        let mut vc = build(2, vec![set(&[1, 2])]);
        vc.set_count_vector(&[1, 2]);
    }

    #[test]
    fn empty_counter_counts_no_transactions() {
        let mut vc = build(2, Vec::new());
        vc.count_all(&[tx(0, &[1, 2, 3])], &ALL());
        assert_eq!(vc.stats().transactions, 0);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn arity_checked() {
        build(3, vec![set(&[1, 2])]);
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
