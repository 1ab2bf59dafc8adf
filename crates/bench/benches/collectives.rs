//! Microbenchmarks of the simulator's collectives: wall-clock cost of the
//! *simulation itself* for the ring all-reduce and the binomial broadcast
//! (virtual-time trade-offs are asserted in armine-mpsim's tests).

use armine_mpsim::{MachineProfile, Simulator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    for p in [8usize, 32] {
        group.bench_function(format!("allreduce_ring_p{p}_m10k"), |b| {
            let sim = Simulator::new(p).machine(MachineProfile::cray_t3e());
            b.iter(|| {
                sim.run(|comm| {
                    let mut v = vec![1u64; 10_000];
                    comm.world().try_allreduce_sum_u64(&mut v).unwrap();
                    v[0]
                })
            });
        });
        group.bench_function(format!("broadcast_p{p}_1mb"), |b| {
            let sim = Simulator::new(p).machine(MachineProfile::cray_t3e());
            b.iter(|| {
                sim.run(|comm| {
                    let mut w = comm.world();
                    let v = (w.rank() == 0).then(|| vec![0u8; 1024]);
                    w.try_broadcast(0, v, 1_000_000).unwrap().len()
                })
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(4)).warm_up_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
