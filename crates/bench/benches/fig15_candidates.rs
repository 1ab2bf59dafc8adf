//! Figure 15 as a Criterion bench: candidate scaling at two support
//! levels (the M sweep is `exp fig15`).

use armine_bench::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let dataset = workloads::t15_i6_items(1000, 400, 1515);
    let mut group = c.benchmark_group("fig15_candidates");
    for support in [0.015f64, 0.0075] {
        let params = ParallelParams::with_min_support(support)
            .page_size(100)
            .memory_capacity(2000)
            .max_k(3);
        for algo in [
            Algorithm::Cd,
            Algorithm::Idd,
            Algorithm::Hd {
                group_threshold: 800,
            },
        ] {
            group.bench_function(format!("{}_sup{support}", algo.name()), |b| {
                let miner = ParallelMiner::new(16);
                b.iter(|| miner.mine(algo, std::hint::black_box(&dataset), &params));
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
