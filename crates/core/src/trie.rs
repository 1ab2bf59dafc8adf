//! A prefix trie over candidate itemsets — the main alternative to the
//! paper's candidate hash tree.
//!
//! Later Apriori implementations (Borgelt's, Bodon's) replaced the hash
//! tree with an item-indexed trie: every path from the root spells a
//! candidate prefix, depth-`k` nodes carry the counts, and counting
//! follows the transaction's items down the trie. The candidates come as
//! its table's rows, strictly ascending (the seam's one input contract),
//! so each is one distinct path. Compared to the hash tree there is no
//! hashing, no leaf checking against the whole transaction, and no revisit
//! bookkeeping — each candidate contained in the transaction is reached by
//! exactly one path.
//!
//! Nothing is searched for. The nodes sit in one arena, level by level and
//! each level in row order, so a node's children are one contiguous run;
//! a node keeps only its item's rank in the trie's [`ItemIndex`], and the
//! depth-`k` nodes are the table's slots in order. A transaction is read
//! once into a position table, rank → position, and then every start
//! position `p ≤ |t| − k` finds its root child by rank, and every deeper
//! child is probed in the table: it matches when its item sits at a
//! position `q` past its parent's with `q + remaining ≤ |t|`, which are
//! the matches the lockstep merge of trie and transaction (Bodon's walk)
//! finds.
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
use crate::item::{Item, ItemIndex};
use crate::transaction::Transaction;

/// "No root child" in `roots`.
const NONE: u32 = u32::MAX;

/// A counting trie for candidates of a fixed size `k`.
#[derive(Debug, Clone)]
pub(crate) struct CandidateTrie {
    table: CandidateTable,
    index: ItemIndex,
    /// Per rank, the root's child for that item, or [`NONE`].
    roots: Vec<u32>,
    /// Per node, its item's rank (the root's is unused).
    rank: Vec<u32>,
    /// Per node and one past the last, where its children start: node
    /// `n`'s are `children[n] .. children[n + 1]` (at depth `k`, empty).
    children: Vec<u32>,
    /// The first depth-`k` node: node `leaves + s` ends the candidate of
    /// slot `s`.
    leaves: u32,
    /// Per rank, the position + 1 of its item in the transaction being
    /// counted, 0 otherwise; all 0 between transactions.
    position: Vec<u32>,
    /// The ranks the transaction being counted set in `position`, with
    /// their positions, ascending.
    held: Vec<(u32, u32)>,
}

impl CandidateTrie {
    /// The trie over `table`'s rows. They are strictly ascending, so the
    /// distinct `d`-item prefixes of the rows, in row order, are the nodes
    /// of depth `d`, and a node's children are consecutive among those
    /// of the next depth.
    pub(crate) fn from_table(table: CandidateTable) -> Self {
        let (index, items) = ItemIndex::distinct(&table.items);
        let k = table.k;
        let rows = || table.items.chunks_exact(k);
        // The depth from which each row leaves its predecessor's path.
        let fresh =
            |prev: &[Item], row: &[Item]| prev.iter().zip(row).take_while(|(a, b)| a == b).count();
        let mut at_depth = vec![0u32; k + 1];
        at_depth[0] = 1;
        let mut prev: &[Item] = &[];
        for row in rows() {
            for count in &mut at_depth[fresh(prev, row) + 1..] {
                *count += 1;
            }
            prev = row;
        }
        let mut next = Vec::with_capacity(k + 1);
        let mut nodes = 0u32;
        for &count in &at_depth {
            next.push(nodes);
            nodes += count;
        }
        let leaves = next[k];
        let mut rank = vec![0u32; nodes as usize];
        let mut children = vec![nodes; nodes as usize + 1];
        // `path[d]` is the node of depth `d` on the current row's path.
        let mut path = vec![0u32; k + 1];
        let mut prev: &[Item] = &[];
        for row in rows() {
            for depth in fresh(prev, row) + 1..=k {
                let (parent, node) = (path[depth - 1], next[depth]);
                next[depth] += 1;
                if children[parent as usize] == nodes {
                    children[parent as usize] = node;
                }
                rank[node as usize] = index
                    .rank(row[depth - 1])
                    .expect("a row's items are ranked");
                path[depth] = node;
            }
            prev = row;
        }
        let mut roots = vec![NONE; items.len()];
        for node in 1..1 + at_depth[1] {
            roots[rank[node as usize] as usize] = node;
        }
        CandidateTrie {
            table,
            index,
            roots,
            rank,
            children,
            leaves,
            position: vec![0; items.len()],
            held: Vec::with_capacity(items.len()),
        }
    }

    /// Number of trie nodes.
    #[cfg(test)]
    fn num_nodes(&self) -> usize {
        self.rank.len()
    }

    /// Counts the candidates contained in one transaction: each contained
    /// candidate is reached exactly once. The filter prunes first items at
    /// the root and (first, second) pairs at depth 1, exactly like the
    /// hash tree's walk.
    fn count(&mut self, t: &Transaction, filter: &OwnershipFilter) {
        if self.table.len() == 0 {
            return;
        }
        self.table.stats.transactions += 1;
        let (items, k) = (t.items(), self.table.k);
        if items.len() < k {
            return;
        }
        let CandidateTrie {
            table,
            index,
            roots,
            rank,
            children,
            leaves,
            position,
            held,
        } = self;
        held.clear();
        for (p, &item) in (0..).zip(items) {
            if let Some(r) = index.rank(item) {
                position[r as usize] = p + 1;
                held.push((p, r));
            }
        }
        let mut walker = Walker {
            items,
            rank,
            children,
            leaves: *leaves,
            position,
            counts: &mut table.counts,
            stats: &mut table.stats,
            filter,
        };
        for &(p, r) in held.iter() {
            if p as usize + k > items.len() {
                break;
            }
            let node = roots[r as usize];
            let first = items[p as usize];
            if node == NONE || !filter.allows_root(first) {
                continue;
            }
            walker.stats.root_starts += 1;
            walker.stats.traversal_steps += 1;
            walker.descend(node, 1, p + 1, k - 1, first);
        }
        for &(_, r) in held.iter() {
            position[r as usize] = 0;
        }
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

/// One transaction's walk below the root, split out so the arena is
/// borrowed shared while counts and stats are borrowed mutably.
struct Walker<'a> {
    items: &'a [Item],
    rank: &'a [u32],
    children: &'a [u32],
    leaves: u32,
    position: &'a [u32],
    counts: &'a mut [u64],
    stats: &'a mut CounterStats,
    filter: &'a OwnershipFilter,
}

impl Walker<'_> {
    /// Arrives at `node`, of depth `depth`, reached through the
    /// transaction's items before position `from`, with `remaining` items
    /// still to match (the path's first item is `first`).
    fn descend(&mut self, node: u32, depth: usize, from: u32, remaining: usize, first: Item) {
        if remaining == 0 {
            // A depth-k arrival: the trie's analogue of a distinct leaf
            // visit (paths are unique, so it is distinct by construction).
            self.stats.distinct_leaf_visits += 1;
            self.stats.candidate_checks += 1;
            self.counts[(node - self.leaves) as usize] += 1;
            return;
        }
        let len = self.items.len();
        if len < from as usize + remaining {
            return;
        }
        let span = self.children[node as usize]..self.children[node as usize + 1];
        for child in span {
            let Some(at) = self.position[self.rank[child as usize] as usize].checked_sub(1) else {
                continue;
            };
            if at < from || at as usize + remaining > len {
                continue;
            }
            if depth == 1 && !self.filter.allows_second(first, self.items[at as usize]) {
                continue;
            }
            self.stats.traversal_steps += 1;
            self.descend(child, depth + 1, at + 1, remaining - 1, first);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::tests::{candidates, filters, slab};
    use crate::itemset::ItemSet;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn build(k: usize, candidates: Vec<ItemSet>) -> CandidateTrie {
        CandidateTrie::from_table(CandidateTable::new(k, candidates))
    }

    crate::counter::tests::run_on! { Trie:
        counts_paper_example => paper_example,
        equivalent_to_hash_tree_on_random_data => brute_force,
        frequent_filters => bookkeeping,
        count_vector_round_trips => bookkeeping,
        #[should_panic(expected = "wrong size")]
        arity_checked => wrong_size,
        first_item_filter_prunes_roots => filters_prune,
        two_level_filter_prunes_second_items => filters_prune,
        stats_ledger_accrues_and_resets => ledger_accrues_and_resets,
        empty_trie_counts_no_transactions => empty_and_short,
        short_transactions_skipped => empty_and_short,
        largest_legal_item_id_is_a_countable_candidate_item => largest_item_id,
        a_page_split_anywhere_counts_and_charges_what_it_does_whole => page_split,
    }

    #[test]
    fn node_sharing_compresses_prefixes() {
        // {1,2,3} and {1,2,4} share the 1→2 path: 1 root + 2 shared + 2
        // leaves = 5 nodes.
        let trie = build(3, vec![set(&[1, 2, 3]), set(&[1, 2, 4])]);
        assert_eq!(trie.num_nodes(), 5);
    }

    /// The ledger is the paper's walk, counted one reachable prefix at a
    /// time: a distinct `d`-item candidate prefix the filter admits, all
    /// of whose items the transaction holds, with its last item at a
    /// position `q` where `q + (k − d) < |t|`, is one traversal step (and,
    /// at `d = 1`, one root start, at `d = k` one leaf visit and check),
    /// on the counting contract's seeded data.
    #[test]
    fn ledger_counts_each_reachable_prefix_once() {
        let txs = slab();
        for (name, filter) in filters() {
            for k in 1..=4 {
                let cands = candidates(k, &txs);
                let mut trie = build(k, cands.clone());
                trie.count_all(&txs, &filter);
                let mut prefixes: Vec<&[Item]> = (1..=k)
                    .flat_map(|d| cands.iter().map(move |c| &c.items()[..d]))
                    .filter(|p| filter.owns(p))
                    .collect();
                prefixes.sort();
                prefixes.dedup();
                let mut want = CounterStats {
                    inserts: cands.len() as u64,
                    transactions: txs.len() as u64,
                    ..CounterStats::default()
                };
                for t in txs.iter().filter(|t| t.len() >= k) {
                    for p in &prefixes {
                        let at = |item| t.items().binary_search(item).ok();
                        let Some(q) = p.iter().map(at).collect::<Option<Vec<_>>>() else {
                            continue;
                        };
                        if q[p.len() - 1] + (k - p.len()) < t.len() {
                            want.traversal_steps += 1;
                            want.root_starts += u64::from(p.len() == 1);
                            want.distinct_leaf_visits += u64::from(p.len() == k);
                            want.candidate_checks += u64::from(p.len() == k);
                        }
                    }
                }
                assert_eq!(trie.stats(), want, "k={k}, {name}");
            }
        }
    }
}
