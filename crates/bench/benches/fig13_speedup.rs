//! Figure 13 as a Criterion bench: pass-3 computation at two machine
//! sizes (the speedup series is `exp fig13`).

use armine_bench::workloads;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let dataset = workloads::t15_i6(2000, 1313);
    let params = ParallelParams::with_min_support(0.01)
        .page_size(100)
        .max_k(3);
    let mut group = c.benchmark_group("fig13_pass3");
    for procs in [4usize, 16] {
        for algo in [
            Algorithm::Cd,
            Algorithm::Idd,
            Algorithm::Hd {
                group_threshold: 800,
            },
        ] {
            group.bench_function(format!("{}_p{procs}", algo.name()), |b| {
                let miner = ParallelMiner::new(procs);
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
