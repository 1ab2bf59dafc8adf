//! Strategies, conversions, datasets and lattices shared by the root
//! suites. Each suite uses some of them.
#![allow(dead_code)]

use armine::core::apriori::FrequentItemsets;
use armine::core::binpack::CandidatePartition;
use armine::core::{Dataset, Item, ItemSet, Transaction};
use armine::datagen::QuestParams;
use proptest::prelude::*;

/// The paper's T15.I6 Quest shape: `n` transactions over `items` items,
/// drawn from `patterns` patterns.
pub fn quest(n: usize, items: u32, patterns: usize, seed: u64) -> Dataset {
    QuestParams::paper_t15_i6()
        .num_transactions(n)
        .num_items(items)
        .num_patterns(patterns)
        .seed(seed)
        .generate()
}

/// Every frequent itemset with its count, in the lattice's order.
pub fn lattice(frequent: &FrequentItemsets) -> Vec<(ItemSet, u64)> {
    frequent.iter().map(|(s, c)| (s.clone(), c)).collect()
}

/// Strategy: a transaction as a set of item ids below `universe`.
pub fn arb_transaction(universe: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..universe, 0..=max_len).prop_map(|s| s.into_iter().collect())
}

/// Strategy: a sorted candidate itemset of exactly `k` distinct items.
pub fn arb_candidate(universe: u32, k: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..universe, k).prop_map(|s| s.into_iter().collect())
}

/// `raw` as transactions, numbered from 0.
pub fn to_transactions(raw: &[Vec<u32>]) -> Vec<Transaction> {
    raw.iter()
        .enumerate()
        .map(|(i, ids)| Transaction::new(i as u64, ids.iter().map(|&x| Item(x)).collect()))
        .collect()
}

/// The itemsets of `raw`, sorted and distinct: a counter's offer.
pub fn to_itemsets(raw: &[Vec<u32>]) -> Vec<ItemSet> {
    let mut sets: Vec<ItemSet> = raw
        .iter()
        .map(|ids| ItemSet::new(ids.iter().map(|&x| Item(x)).collect()))
        .collect();
    sets.sort();
    sets.dedup();
    sets
}

/// Every processor's share of `cands` under `part`, cut the way the
/// parallel drivers cut their own.
pub fn shares(part: &CandidatePartition, cands: &[ItemSet]) -> Vec<Vec<ItemSet>> {
    let owned = |proc: usize| {
        let mine = cands.iter().enumerate();
        let mine = mine.filter(move |(i, c)| part.owns(proc, *i, c.items()));
        mine.map(|(_, c)| c.clone()).collect()
    };
    (0..part.num_procs()).map(owned).collect()
}
