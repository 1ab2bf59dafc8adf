//! Figure 11 as a Criterion bench: DD vs IDD counting passes (the figure's
//! virtual leaf-visit series comes from `exp fig11`).

use armine_bench::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let procs = 8;
    let dataset = workloads::scaleup(procs, 200, 1111);
    let params = ParallelParams::with_min_support(0.015)
        .page_size(100)
        .max_k(3);
    let mut group = c.benchmark_group("fig11_leaf_visits");
    for algo in [Algorithm::Dd, Algorithm::Idd] {
        group.bench_function(algo.name(), |b| {
            let miner = ParallelMiner::new(procs);
            b.iter(|| miner.mine(algo, std::hint::black_box(&dataset), &params));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
