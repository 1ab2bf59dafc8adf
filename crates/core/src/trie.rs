//! A prefix trie over candidate itemsets — the main alternative to the
//! paper's candidate hash tree.
//!
//! Later Apriori implementations (Borgelt's, Bodon's) replaced the hash
//! tree with an item-indexed trie: every path from the root spells a
//! candidate prefix, depth-`k` nodes carry the counts, and counting walks
//! the trie and the (sorted) transaction in lockstep. The candidates come
//! as its table's rows, strictly ascending (the seam's one input
//! contract), so each is one distinct path. Compared to the
//! hash tree there is no hashing, no leaf checking against the whole
//! transaction, and no revisit bookkeeping — each candidate contained in
//! the transaction is reached by exactly one path.
//!
//! The trie is a full [`CandidateCounter`] backend: it honors the
//! [`OwnershipFilter`]'s root and second-level pruning (so IDD/HD
//! partitioned counting works unchanged) and keeps the
//! same six-field work ledger as the hash tree, mapping child descents to
//! `traversal_steps` and depth-`k` node arrivals to
//! `distinct_leaf_visits` so the virtual-time model can charge either
//! structure through one expression.

use crate::counter::{CandidateCounter, CandidateTable, CounterStats};
use crate::hashtree::OwnershipFilter;
use crate::item::Item;
use crate::transaction::Transaction;

/// Arena-allocated trie node: sorted child list + optional candidate slot.
#[derive(Debug, Default, Clone)]
struct TrieNode {
    /// `(item, child index)`, ascending by item.
    children: Vec<(Item, u32)>,
    /// The candidate's table slot when a candidate *ends* here.
    candidate: Option<u32>,
}

/// A counting trie for candidates of a fixed size `k`.
#[derive(Debug, Clone)]
pub(crate) struct CandidateTrie {
    table: CandidateTable,
    nodes: Vec<TrieNode>,
}

impl CandidateTrie {
    /// The trie over `table`'s rows. They are strictly ascending, so a
    /// row's item either continues its node's last child or starts a new,
    /// larger one: the child lists come out sorted.
    pub(crate) fn from_table(table: CandidateTable) -> Self {
        let mut nodes = vec![TrieNode::default()];
        for slot in 0..table.len() {
            let mut node = 0usize;
            for &item in table.candidate(slot) {
                node = match nodes[node].children.last() {
                    Some(&(last, child)) if last == item => child as usize,
                    _ => {
                        nodes.push(TrieNode::default());
                        let fresh = nodes.len() - 1;
                        nodes[node].children.push((item, fresh as u32));
                        fresh
                    }
                };
            }
            nodes[node].candidate = Some(slot as u32);
        }
        CandidateTrie { table, nodes }
    }

    /// Number of trie nodes.
    #[cfg(test)]
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Counts the candidates contained in one transaction: a lockstep walk
    /// of the trie and the sorted item list — each contained candidate is
    /// visited exactly once. The filter prunes first items at the root and
    /// (first, second) pairs at depth 1, exactly like the hash tree's
    /// `subset`.
    fn count(&mut self, t: &Transaction, filter: &OwnershipFilter) {
        if self.table.len() == 0 {
            return;
        }
        self.table.stats.transactions += 1;
        let items = t.items();
        if items.len() < self.table.k {
            return;
        }
        let mut walker = Walker {
            nodes: &self.nodes,
            counts: &mut self.table.counts,
            stats: &mut self.table.stats,
            filter,
        };
        walker.walk(0, items, self.table.k, 0, Item(0));
    }
}

impl CandidateCounter for CandidateTrie {
    fn table(&self) -> &CandidateTable {
        &self.table
    }

    fn table_mut(&mut self) -> &mut CandidateTable {
        &mut self.table
    }

    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        for t in transactions {
            self.count(t, filter);
        }
    }
}

/// The recursive lockstep walk, split out so the node arena is borrowed
/// shared while counts and stats are borrowed mutably (the old method
/// recursion had to clone every child list to appease the borrow
/// checker).
struct Walker<'a> {
    nodes: &'a [TrieNode],
    counts: &'a mut [u64],
    stats: &'a mut CounterStats,
    filter: &'a OwnershipFilter,
}

impl Walker<'_> {
    fn walk(&mut self, node: u32, suffix: &[Item], remaining: usize, depth: usize, first: Item) {
        let nodes = self.nodes;
        if remaining == 0 {
            // A depth-k arrival: the trie's analogue of a distinct leaf
            // visit (paths are unique, so it is distinct by construction).
            self.stats.distinct_leaf_visits += 1;
            if let Some(c) = nodes[node as usize].candidate {
                self.stats.candidate_checks += 1;
                self.counts[c as usize] += 1;
            }
            return;
        }
        if suffix.len() < remaining {
            return;
        }
        // Merge-intersect the child list with the transaction suffix.
        let children = &nodes[node as usize].children;
        let (mut ci, mut si) = (0usize, 0usize);
        while ci < children.len() && si + remaining <= suffix.len() {
            let (item, child) = children[ci];
            match item.cmp(&suffix[si]) {
                std::cmp::Ordering::Less => ci += 1,
                std::cmp::Ordering::Greater => si += 1,
                std::cmp::Ordering::Equal => {
                    let allowed = match depth {
                        0 => self.filter.allows_root(item),
                        1 => self.filter.allows_second(first, item),
                        _ => true,
                    };
                    if allowed {
                        if depth == 0 {
                            self.stats.root_starts += 1;
                        }
                        self.stats.traversal_steps += 1;
                        let start = if depth == 0 { item } else { first };
                        self.walk(child, &suffix[si + 1..], remaining - 1, depth + 1, start);
                    }
                    ci += 1;
                    si += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::ItemBitmap;
    use crate::hashtree::{HashTree, HashTreeParams};
    use crate::itemset::ItemSet;
    use rand::prelude::*;
    use std::collections::HashSet;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn build(k: usize, candidates: Vec<ItemSet>) -> CandidateTrie {
        CandidateTrie::from_table(CandidateTable::new(k, candidates))
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
        let mut trie = build(3, cands);
        trie.count(&tx(0, &[1, 2, 3, 5, 6]), &ALL());
        assert_eq!(trie.count_of(&set(&[1, 2, 5])), Some(1));
        assert_eq!(trie.count_of(&set(&[1, 3, 6])), Some(1));
        assert_eq!(trie.count_of(&set(&[3, 5, 6])), Some(1));
        assert_eq!(trie.count_of(&set(&[1, 4, 5])), Some(0));
        assert_eq!(trie.count_of(&set(&[9, 9, 9])), None);
    }

    #[test]
    fn equivalent_to_hash_tree_on_random_data() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..10 {
            let k = 2 + trial % 3;
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
            let mut trie = build(k, cands.clone());
            trie.count_all(&txs, &ALL());
            let mut tree = HashTree::build(k, HashTreeParams::default(), cands.clone());
            tree.count_all(&txs, &ALL());
            for c in &cands {
                assert_eq!(trie.count_of(c), tree.count_of(c), "candidate {c}");
            }
        }
    }

    #[test]
    fn first_item_filter_prunes_roots() {
        let cands = vec![set(&[1, 2]), set(&[3, 4]), set(&[5, 6])];
        let mut trie = build(2, cands);
        // Own only first item 3: candidates starting at 1 or 5 must not
        // be counted even though the transaction contains them.
        let filter = OwnershipFilter::first_item(ItemBitmap::from_items(10, [Item(3)]));
        trie.count(&tx(0, &[1, 2, 3, 4, 5, 6]), &filter);
        assert_eq!(trie.count_of(&set(&[1, 2])), Some(0));
        assert_eq!(trie.count_of(&set(&[3, 4])), Some(1));
        assert_eq!(trie.count_of(&set(&[5, 6])), Some(0));
        // Exactly one root start survived the bitmap.
        assert_eq!(trie.stats().root_starts, 1);
    }

    #[test]
    fn two_level_filter_prunes_second_items() {
        let cands = vec![set(&[1, 2, 3]), set(&[4, 5, 8]), set(&[4, 6, 8])];
        let mut trie = build(3, cands);
        // Item 1 owned outright; item 4 split, owning only the (4, 5) pair.
        let owned_first = ItemBitmap::from_items(10, [Item(1)]);
        let pairs: HashSet<(Item, Item)> = [(Item(4), Item(5))].into_iter().collect();
        let filter = OwnershipFilter::two_level(owned_first, pairs);
        trie.count(&tx(0, &[1, 2, 3, 4, 5, 6, 8]), &filter);
        assert_eq!(trie.count_of(&set(&[1, 2, 3])), Some(1));
        assert_eq!(trie.count_of(&set(&[4, 5, 8])), Some(1));
        assert_eq!(trie.count_of(&set(&[4, 6, 8])), Some(0));
    }

    #[test]
    fn stats_ledger_accrues_and_resets() {
        let mut trie = build(2, vec![set(&[1, 2]), set(&[1, 3])]);
        assert_eq!(trie.stats().inserts, 2);
        trie.count(&tx(0, &[1, 2, 3]), &ALL());
        trie.count(&tx(1, &[9]), &ALL()); // short: counted as a transaction only
        let s = trie.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.root_starts, 1); // single descent from the root via item 1
        assert_eq!(s.distinct_leaf_visits, 2); // {1,2} and {1,3} both reached
        assert_eq!(s.candidate_checks, 2);
        assert!(s.traversal_steps >= 3); // 1→2, 1→3 plus the root descent
        trie.reset_stats();
        assert_eq!(trie.stats(), CounterStats::default());
        // Counts survive a stats reset.
        assert_eq!(trie.count_of(&set(&[1, 2])), Some(1));
    }

    #[test]
    fn empty_trie_counts_no_transactions() {
        let mut trie = build(2, Vec::new());
        trie.count(&tx(0, &[1, 2, 3]), &ALL());
        assert_eq!(trie.stats().transactions, 0);
    }

    #[test]
    fn count_vector_round_trips() {
        let mut trie = build(2, vec![set(&[1, 2]), set(&[2, 3])]);
        trie.count_all(&[tx(0, &[1, 2]), tx(1, &[1, 2, 3])], &ALL());
        assert_eq!(trie.count_vector(), vec![2, 1]);
        trie.set_count_vector(&[7, 9]);
        assert_eq!(trie.count_of(&set(&[1, 2])), Some(7));
        assert_eq!(trie.count_of(&set(&[2, 3])), Some(9));
    }

    #[test]
    #[should_panic(expected = "count vector length mismatch")]
    fn count_vector_arity_checked() {
        let mut trie = build(2, vec![set(&[1, 2])]);
        trie.set_count_vector(&[1, 2]);
    }

    #[test]
    fn frequent_filters() {
        let mut trie = build(1, vec![set(&[3]), set(&[7])]);
        trie.count_all(&[tx(0, &[3]), tx(1, &[3, 7]), tx(2, &[3])], &ALL());
        assert_eq!(trie.frequent(3), vec![(set(&[3]), 3)]);
        assert_eq!(trie.frequent(1).len(), 2);
    }

    #[test]
    fn short_transactions_skipped() {
        let mut trie = build(3, vec![set(&[1, 2, 3])]);
        trie.count(&tx(0, &[1, 2]), &ALL());
        assert_eq!(trie.count_of(&set(&[1, 2, 3])), Some(0));
    }

    #[test]
    fn node_sharing_compresses_prefixes() {
        // {1,2,3} and {1,2,4} share the 1→2 path: 1 root + 2 shared + 2
        // leaves = 5 nodes.
        let trie = build(3, vec![set(&[1, 2, 3]), set(&[1, 2, 4])]);
        assert_eq!(trie.num_nodes(), 5);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn arity_checked() {
        build(3, vec![set(&[1, 2])]);
    }
}
