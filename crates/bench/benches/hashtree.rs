//! Microbenchmarks of the candidate hash tree: construction, the subset
//! operation, and the effect of IDD's bitmap root filter.

use armine_core::bitmap::ItemBitmap;
use armine_core::counter::CounterBackend;
use armine_core::hashtree::{HashTree, HashTreeParams, OwnershipFilter};
use armine_core::trie::CandidateTrie;
use armine_core::{Item, ItemSet, Transaction};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::prelude::*;
use std::time::Duration;

fn make_candidates(n: usize, universe: u32, k: usize, seed: u64) -> Vec<ItemSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<ItemSet> = (0..n * 2)
        .map(|_| {
            let mut ids: Vec<u32> = (0..universe).collect();
            ids.partial_shuffle(&mut rng, k);
            ItemSet::new(ids[..k].iter().map(|&i| Item(i)).collect())
        })
        .collect();
    out.sort();
    out.dedup();
    out.truncate(n);
    out
}

fn make_transactions(n: usize, universe: u32, len: usize, seed: u64) -> Vec<Transaction> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|tid| {
            let mut ids: Vec<u32> = (0..universe).collect();
            ids.partial_shuffle(&mut rng, len);
            Transaction::new(tid as u64, ids[..len].iter().map(|&i| Item(i)).collect())
        })
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let cands = make_candidates(10_000, 300, 3, 1);
    c.bench_function("hashtree_build_10k", |b| {
        b.iter_batched(
            || cands.clone(),
            |cands| HashTree::build(3, HashTreeParams::default(), std::hint::black_box(cands)),
            BatchSize::LargeInput,
        );
    });
}

fn bench_subset(c: &mut Criterion) {
    let cands = make_candidates(10_000, 300, 3, 2);
    let txs = make_transactions(200, 300, 15, 3);
    let mut group = c.benchmark_group("hashtree_subset");
    group.bench_function("unfiltered_200tx", |b| {
        let mut tree = HashTree::build(3, HashTreeParams::default(), cands.clone());
        b.iter(|| tree.count_all(std::hint::black_box(&txs), &OwnershipFilter::all()));
    });
    // IDD's situation: own 1/8 of the first items (and only those
    // candidates), filter the rest at the root.
    let owned = ItemBitmap::from_items(300, (0u32..300).filter(|i| i % 8 == 0).map(Item));
    let filter = OwnershipFilter::first_item(owned);
    group.bench_function("bitmap_filtered_200tx", |b| {
        let own_cands: Vec<ItemSet> = cands
            .iter()
            .filter(|c| c.first().unwrap().id() % 8 == 0)
            .cloned()
            .collect();
        let mut tree = HashTree::build(3, HashTreeParams::default(), own_cands);
        b.iter(|| tree.count_all(std::hint::black_box(&txs), &filter));
    });
    group.finish();
}

/// Pass 2's shape, wide and shallow: every pair over 650 items (210,925
/// candidates) against T15-length transactions. Under a fixed fan-out of
/// 8 this tree has 64 leaves of ~3.3K candidates each. The `trie_*` and
/// `vertical_*` rows are what those backends count pass 2 with, built the
/// way every caller builds them, so the three structures' pass-2 cost
/// sits in one table.
fn bench_k2_wide(c: &mut Criterion) {
    let cands: Vec<ItemSet> = (0..650u32)
        .flat_map(|a| (a + 1..650).map(move |b| ItemSet::from([a, b])))
        .collect();
    let txs = make_transactions(1000, 650, 15, 7);
    let mut group = c.benchmark_group("hashtree_k2_wide_211k");
    group.bench_function("build", |b| {
        b.iter_batched(
            || cands.clone(),
            |cands| HashTree::build(2, HashTreeParams::default(), std::hint::black_box(cands)),
            BatchSize::LargeInput,
        );
    });
    group.bench_function("count_1000tx", |b| {
        let mut tree = HashTree::build(2, HashTreeParams::default(), cands.clone());
        b.iter(|| tree.count_all(std::hint::black_box(&txs), &OwnershipFilter::all()));
    });
    for backend in [CounterBackend::Trie, CounterBackend::Vertical] {
        let build = |cands| backend.build(2, HashTreeParams::default(), cands);
        group.bench_function(format!("{}_build", backend.name()), |b| {
            b.iter_batched(
                || cands.clone(),
                |cands| build(std::hint::black_box(cands)),
                BatchSize::LargeInput,
            );
        });
        group.bench_function(format!("{}_count_1000tx", backend.name()), |b| {
            let mut counter = build(cands.clone());
            b.iter(|| counter.count_all(std::hint::black_box(&txs), &OwnershipFilter::all()));
        });
    }
    group.finish();
}

fn bench_trie_vs_tree(c: &mut Criterion) {
    let cands = make_candidates(10_000, 300, 3, 5);
    let txs = make_transactions(200, 300, 15, 6);
    let mut group = c.benchmark_group("structure_comparison");
    group.bench_function("hash_tree_count_200tx", |b| {
        let mut tree = HashTree::build(3, HashTreeParams::default(), cands.clone());
        b.iter(|| tree.count_all(std::hint::black_box(&txs), &OwnershipFilter::all()));
    });
    group.bench_function("prefix_trie_count_200tx", |b| {
        let mut trie = CandidateTrie::build(3, cands.clone());
        b.iter(|| trie.count_all(std::hint::black_box(&txs), &OwnershipFilter::all()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(4)).warm_up_time(Duration::from_secs(1));
    targets = bench_build, bench_subset, bench_k2_wide, bench_trie_vs_tree
}
criterion_main!(benches);
