//! Property-based tests of the simulator's collectives: for arbitrary
//! member counts, vector lengths and contents, the algorithms must
//! produce exactly the mathematical result on every rank — and virtual
//! time must stay deterministic and causal.

use armine_mpsim::{ClusterProfile, MachineProfile, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ring allreduce == element-wise sum, any p, any length.
    #[test]
    fn allreduce_is_sum(
        p in 1usize..10,
        base in prop::collection::vec(0u64..1000, 0..40),
    ) {
        let base_ref = &base;
        let r = Simulator::new(p)
            .cluster(ClusterProfile::uniform(MachineProfile::ideal()))
            .run(move |comm| {
                let mut v: Vec<u64> = base_ref
                    .iter()
                    .map(|&x| x + comm.rank() as u64)
                    .collect();
                comm.world().try_allreduce_sum_u64(&mut v).unwrap();
                v
            });
        let rank_sum: u64 = (0..p as u64).sum();
        for got in &r.results {
            let want: Vec<u64> = base.iter().map(|&x| x * p as u64 + rank_sum).collect();
            prop_assert_eq!(got, &want);
        }
    }

    /// Allgather delivers every member's value in member order.
    #[test]
    fn allgather_orders_by_rank(p in 1usize..10, salt in 0u64..1000) {
        let r = Simulator::new(p)
            .cluster(ClusterProfile::uniform(MachineProfile::ideal()))
            .run(move |comm| {
                let mine = comm.rank() as u64 * 1000 + salt;
                comm.world().try_allgather(mine, 8).unwrap()
            });
        for got in &r.results {
            let want: Vec<u64> = (0..p as u64).map(|i| i * 1000 + salt).collect();
            prop_assert_eq!(got, &want);
        }
    }

    /// Broadcast delivers the root's value everywhere, for any root.
    #[test]
    fn broadcast_delivers(p in 1usize..10, root_seed in 0usize..100, payload in 0u64..u64::MAX) {
        let root = root_seed % p;
        let r = Simulator::new(p)
            .cluster(ClusterProfile::uniform(MachineProfile::ideal()))
            .run(move |comm| {
                let mut w = comm.world();
                let value = (w.rank() == root).then_some(payload);
                w.try_broadcast(root, value, 8).unwrap()
            });
        prop_assert!(r.results.iter().all(|&v| v == payload));
    }

    /// Response time is deterministic and never below any rank's busy time.
    #[test]
    fn virtual_time_causal_and_deterministic(
        p in 2usize..8,
        work_us in prop::collection::vec(1u64..500, 2..8),
    ) {
        let work = &work_us;
        let run = || {
            Simulator::new(p).run(move |comm| {
                let us = work[comm.rank() % work.len()] as f64 * 1e-6;
                comm.advance(us);
                let mut v = vec![comm.rank() as u64; 16];
                comm.world().try_allreduce_sum_u64(&mut v).unwrap();
                comm.clock()
            })
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.results, &b.results, "virtual clocks must be reproducible");
        let max_busy = work.iter().take(p).cloned().max().unwrap_or(0) as f64 * 1e-6;
        prop_assert!(a.response_time() >= max_busy - 1e-12);
        // Everyone's post-allreduce clock is at least the slowest rank's
        // pre-collective compute (the collective synchronizes).
        let slowest = (0..p)
            .map(|r| work[r % work.len()] as f64 * 1e-6)
            .fold(0.0f64, f64::max);
        for &c in &a.results {
            prop_assert!(c >= slowest - 1e-12);
        }
    }
}
