//! Figure 14 as a Criterion bench: transaction scaling of CD/IDD/HD at a
//! fixed machine size (the N sweep is `exp fig14`).

use armine_bench::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let params = ParallelParams::with_min_support(0.01)
        .page_size(100)
        .max_k(3);
    let mut group = c.benchmark_group("fig14_transactions");
    for n in [1000usize, 4000] {
        let dataset = workloads::t15_i6(n, 1414);
        for algo in [
            Algorithm::Cd,
            Algorithm::Idd,
            Algorithm::Hd {
                group_threshold: 800,
            },
        ] {
            group.bench_function(format!("{}_n{n}", algo.name()), |b| {
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
