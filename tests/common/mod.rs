//! Strategies, conversions, datasets and lattices shared by the root
//! suites. Each suite uses some of them.
#![allow(dead_code)]

use armine::core::apriori::FrequentItemsets;
use armine::core::binpack::CandidatePartition;
use armine::core::candidates::Candidates;
use armine::core::{Dataset, Item, ItemSet, Transaction};
use armine::datagen::QuestParams;
use proptest::prelude::*;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

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

/// `sets`, strictly ascending `k`-item sets, as a pass's `C_k`: what the
/// partitioners read.
pub fn c_k(k: usize, sets: &[ItemSet]) -> Candidates {
    Candidates::from_arena(k, sets.iter().flat_map(ItemSet::items).copied().collect())
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

/// How long one case of a suite that can hang may run: a recovery protocol
/// whose survivor waits on a peer that never joins would otherwise wait
/// forever. The whole fault-recovery suite takes about 5 s in release and
/// 7 s in debug, so this is ample.
pub const CASE_DEADLINE: Duration = Duration::from_secs(120);

/// Runs `case` on a thread of its own and returns what it returns; a panic
/// in it is re-raised here. A case still running after [`CASE_DEADLINE`]
/// fails with `name`, and its thread is left to end with the process.
pub fn bounded<T: Send + 'static>(name: &str, case: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, outcome) = mpsc::channel();
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || done.send(panic::catch_unwind(AssertUnwindSafe(case))))
        .expect("a thread for the case");
    match outcome.recv_timeout(CASE_DEADLINE) {
        Ok(Ok(value)) => value,
        Ok(Err(payload)) => panic::resume_unwind(payload),
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name}: still running after {CASE_DEADLINE:?}, so it hangs")
        }
        Err(RecvTimeoutError::Disconnected) => unreachable!("{name} ended without an outcome"),
    }
}
