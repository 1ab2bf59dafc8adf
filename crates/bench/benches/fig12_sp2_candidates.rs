//! Figure 12 as a Criterion bench: the SP2 memory-wall comparison at one
//! support level (the full sweep is `exp fig12`).

use armine_bench::workloads;
use armine_mpsim::MachineProfile;
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let dataset = workloads::t15_i6_items(1000, 300, 1212);
    let params = ParallelParams::with_min_support(0.01)
        .page_size(100)
        .memory_capacity(1500)
        .max_k(4);
    let mut group = c.benchmark_group("fig12_sp2");
    for algo in [
        Algorithm::Cd,
        Algorithm::Idd,
        Algorithm::Hd {
            group_threshold: 1500,
        },
    ] {
        group.bench_function(algo.name(), |b| {
            let miner = ParallelMiner::new(16).machine(MachineProfile::ibm_sp2());
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
