//! Spawning and collecting a simulation.

use crate::clock::Clock;
use crate::comm::{Comm, CrashUnwind, SecondaryPanic};
use crate::fault::FaultPlan;
use crate::machine::{ClusterProfile, MachineProfile};
use crate::message::Envelope;
use crate::stats::{imbalance, RankStats};
use crate::topology::Topology;
use crate::wall::ExecBackend;
use crossbeam::channel::unbounded;
use std::any::Any;
use std::sync::{Arc, Once};

/// Configuration and entry point of a simulated machine.
#[derive(Debug, Clone)]
pub struct Simulator {
    procs: usize,
    cluster: ClusterProfile,
    topology: Topology,
    plan: Option<Arc<FaultPlan>>,
    backend: ExecBackend,
}

/// Injected crashes and their secondary effects unwind rank threads with
/// marker payloads; the default panic hook would print a backtrace for
/// each, flooding stderr on fault-heavy runs. Install (once) a hook that
/// stays silent for those markers and defers to the previous hook for
/// real panics.
fn silence_fault_unwinds() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if !payload.is::<CrashUnwind>() && !payload.is::<SecondaryPanic>() {
                prev(info);
            }
        }));
    });
}

impl Simulator {
    /// A simulator with `procs` ranks, defaulting to the Cray T3E profile
    /// on a torus sized for `procs` (the paper's testbed).
    ///
    /// # Panics
    /// If `procs == 0`.
    pub fn new(procs: usize) -> Self {
        assert!(procs >= 1, "need at least one processor");
        Simulator {
            procs,
            cluster: ClusterProfile::default(),
            topology: Topology::torus_for(procs),
            plan: None,
            backend: ExecBackend::Sim,
        }
    }

    /// Selects the execution backend: [`ExecBackend::Sim`] (virtual time,
    /// the default) or [`ExecBackend::Native`] (full-speed wall-clock
    /// execution: each rank's [`RankStats`] then hold measured seconds).
    /// Fault plans run on either backend; on native, injected faults are
    /// real (thread panics, sleeps, wall-clock retransmit timers).
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Runs the simulation under a deterministic fault plan (message
    /// drops/delays, stragglers, crashes). Plans that crash ranks require
    /// [`Simulator::run_with_faults`].
    ///
    /// # Panics
    /// If the plan's parameters are out of range.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        self.plan = Some(Arc::new(plan));
        self
    }

    /// Overrides the machine profile (every rank runs it at speed 1.0 —
    /// shorthand for a uniform [`ClusterProfile`]).
    pub fn machine(mut self, machine: MachineProfile) -> Self {
        self.cluster = ClusterProfile::uniform(machine);
        self
    }

    /// Overrides the whole cluster profile: base machine plus per-rank
    /// relative speeds. Per-rank speeds multiply compute charges (and, on
    /// the native backend, stretch counting brackets with real sleeps)
    /// exactly like fault-plan straggler slowdowns — the two compose into
    /// one per-rank factor.
    ///
    /// # Panics
    /// If the profile's parameters are out of range for `procs` ranks.
    pub fn cluster(mut self, cluster: ClusterProfile) -> Self {
        cluster
            .validate_for_procs(self.procs)
            .unwrap_or_else(|e| panic!("invalid cluster profile: {e}"));
        self.cluster = cluster;
        self
    }

    /// Overrides the interconnect topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Number of ranks.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Runs `f` on every rank concurrently (one OS thread per rank) and
    /// collects results and accounting. `f` receives this rank's
    /// [`Comm`]; its return value lands in [`SimResult::results`] at the
    /// rank's index.
    ///
    /// # Panics
    /// Propagates any rank's panic. Also panics if the configured fault
    /// plan can crash ranks — crash-tolerant callers must use
    /// [`Simulator::run_with_faults`], which reports crashed ranks as
    /// `None` instead.
    pub fn run<T, F>(&self, f: F) -> SimResult<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        if let Some(plan) = &self.plan {
            assert!(
                !plan.has_crashes(),
                "the fault plan crashes ranks: use run_with_faults"
            );
        }
        let r = self.run_with_faults(f);
        SimResult {
            results: r
                .results
                .into_iter()
                .map(|v| v.expect("no rank can crash without a crashing fault plan"))
                .collect(),
            ranks: r.ranks,
        }
    }

    /// Like [`Simulator::run`], but tolerates injected rank crashes: a
    /// crashed rank's result slot is `None` (its [`RankStats`] still
    /// reflect the time up to the crash). Non-injected panics (bugs in
    /// `f`) still propagate, preferring the root-cause panic over
    /// secondary receive failures it triggered on other ranks.
    pub fn run_with_faults<T, F>(&self, f: F) -> SimResult<Option<T>>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        silence_fault_unwinds();
        let p = self.procs;
        // One wall origin for the whole run: native fault machinery
        // compares cross-rank timestamps (delayed-arrival deadlines,
        // crash tombstones), so every rank must measure from the same
        // instant.
        let wall_origin = std::time::Instant::now();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..p).map(|_| unbounded::<Envelope>()).unzip();
        type RankResult<T> = (Option<T>, RankStats);
        type RankOutcome<T> = Result<RankResult<T>, Box<dyn Any + Send>>;
        let mut outputs: Vec<Option<RankResult<T>>> = (0..p).map(|_| None).collect();
        let mut primary_panic: Option<Box<dyn Any + Send>> = None;
        let mut secondary_panic: Option<Box<dyn Any + Send>> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, inbox) in receivers.into_iter().enumerate() {
                let senders = senders.clone();
                let f = &f;
                let machine = self.cluster.base().clone();
                // One combined compute multiplier per rank: fault-plan
                // straggler slowdown × cluster slowdown (1/speed). Both
                // default to the literal 1.0, so homogeneous fault-free
                // runs charge through exactly the historical constant.
                let slowdown = self.plan.as_ref().map_or(1.0, |p| p.slowdown_of(rank))
                    * self.cluster.slowdown_of(rank);
                let topology = self.topology;
                let plan = self.plan.clone();
                let backend = self.backend;
                handles.push(scope.spawn(move || -> RankOutcome<T> {
                    let clock = Clock::new(backend, wall_origin, slowdown);
                    let mut comm =
                        Comm::new(rank, p, machine, topology, senders, inbox, plan, clock);
                    let value = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        f(&mut comm)
                    })) {
                        Ok(value) => {
                            // Tell peers this rank is done: a receive still
                            // pending on it is a protocol bug that should
                            // panic loudly, not hang.
                            comm.send_goodbyes(false);
                            Some(value)
                        }
                        // Injected crash: tombstones were already sent
                        // at the moment of death.
                        Err(payload) if payload.is::<CrashUnwind>() => None,
                        Err(payload) => {
                            comm.send_goodbyes(true);
                            return Err(payload);
                        }
                    };
                    Ok((value, comm.finish()))
                }));
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(Ok(tuple)) => outputs[rank] = Some(tuple),
                    Ok(Err(payload)) | Err(payload) => {
                        // Prefer the root-cause panic over the secondary
                        // receive failures it triggered elsewhere.
                        if payload.is::<SecondaryPanic>() {
                            secondary_panic.get_or_insert(payload);
                        } else {
                            primary_panic.get_or_insert(payload);
                        }
                    }
                }
            }
        });
        if let Some(payload) = primary_panic.or(secondary_panic) {
            // A surviving secondary marker (no primary found) re-panics
            // with its diagnostic string so test harnesses can match it.
            match payload.downcast::<SecondaryPanic>() {
                Ok(sp) => panic!("{}", sp.0),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        let (results, ranks) = outputs
            .into_iter()
            .map(|o| o.expect("a rank that did not report re-raised its panic above"))
            .unzip();
        SimResult { results, ranks }
    }
}

/// The outcome of a simulated run.
#[derive(Debug)]
pub struct SimResult<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank time/traffic accounting: virtual seconds on the sim
    /// backend, measured wall seconds on the native one.
    pub ranks: Vec<RankStats>,
}

impl<T> SimResult<T> {
    /// Response time: the maximum final clock over all ranks — what the
    /// paper's y-axes plot.
    pub fn response_time(&self) -> f64 {
        self.ranks.iter().map(|r| r.clock).fold(0.0, f64::max)
    }

    /// Total bytes put on the wire by all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Load imbalance of compute time across ranks (`max/avg − 1`) — the
    /// metric behind the paper's Section III-C load-balance quotes.
    pub fn compute_imbalance(&self) -> f64 {
        imbalance(self.ranks.iter().map(|r| r.busy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineProfile;

    fn ideal(procs: usize) -> Simulator {
        Simulator::new(procs).machine(MachineProfile::ideal())
    }

    fn t3e(procs: usize) -> Simulator {
        Simulator::new(procs).machine(MachineProfile::cray_t3e())
    }

    #[test]
    fn single_rank_runs() {
        let r = Simulator::new(1).run(|comm| {
            comm.advance(1.5);
            comm.rank()
        });
        assert_eq!(r.results, vec![0]);
        assert!((r.response_time() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        Simulator::new(0);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let r = t3e(2).run(|comm| {
            let mut w = comm.world();
            if w.rank() == 0 {
                w.send(1, 7, vec![1u32, 2, 3], 12);
                w.try_recv::<String>(1, 8).unwrap()
            } else {
                let v: Vec<u32> = w.try_recv(0, 7).unwrap();
                w.send(0, 8, format!("got {}", v.len()), 16);
                String::new()
            }
        });
        assert_eq!(r.results[0], "got 3");
        // Two messages, 28 bytes total.
        assert_eq!(r.ranks.iter().map(|s| s.messages_sent).sum::<u64>(), 2);
        assert_eq!(r.total_bytes(), 28);
        // Virtual time covers two startups at least.
        assert!(r.response_time() >= 2.0 * MachineProfile::cray_t3e().t_s);
    }

    #[test]
    fn shared_payloads_move_without_copying_but_charge_wire_bytes() {
        // Send an `Arc<[u64]>` payload: the receiver must get the *same*
        // allocation (refcount bump, no deep copy) while the simulator
        // still charges the full logical wire size — the invariant the
        // parallel crate's shared transaction pages rely on.
        use std::sync::Arc;
        let page: Arc<[u64]> = Arc::from((0..1024u64).collect::<Vec<_>>());
        let sent = page.clone();
        let r = t3e(2).run(move |comm| {
            let mut w = comm.world();
            if w.rank() == 0 {
                w.send(1, 3, sent.clone(), 8 * 1024);
                None
            } else {
                Some(w.try_recv::<Arc<[u64]>>(0, 3).unwrap())
            }
        });
        let received = r.results[1].as_ref().expect("rank 1 received the page");
        assert!(
            Arc::ptr_eq(received, &page),
            "payload must be the same allocation, not a copy"
        );
        // Wire accounting still reflects the logical page size.
        assert_eq!(r.ranks[0].bytes_sent, 8 * 1024);
        assert_eq!(r.ranks[1].bytes_received, 8 * 1024);
    }

    #[test]
    fn receive_waits_for_arrival_and_counts_idle() {
        let r = t3e(2).run(|comm| {
            let mut w = comm.world();
            if w.rank() == 0 {
                // Sender computes for 1 ms before sending.
                w.comm().advance(1e-3);
                w.send(1, 0, 42u64, 1_000_000);
            } else {
                let v: u64 = w.try_recv(0, 0).unwrap();
                assert_eq!(v, 42);
            }
            w.comm().clock()
        });
        let m = MachineProfile::cray_t3e();
        // Receiver clock ≥ sender compute + wire time of 1 MB.
        let wire = 1e6 * m.t_w;
        assert!(r.results[1] >= 1e-3 + wire);
        // The receiver idled at least as long as the sender computed.
        assert!(r.ranks[1].idle >= 1e-3 - 1e-9);
    }

    #[test]
    fn isend_overlaps_compute() {
        // With non-blocking send + compute, the sender's clock is
        // max(compute, link time), not the sum.
        let m = MachineProfile::cray_t3e();
        let bytes = 10_000_000usize; // ~33 ms of wire time
        let compute = 0.040; // 40 ms of compute
        let r = t3e(2).run(move |comm| {
            let mut w = comm.world();
            if w.rank() == 0 {
                let h = w.isend(1, 0, vec![0u8; 4], bytes);
                w.comm().advance(compute);
                w.wait_send(h);
                w.comm().clock()
            } else {
                let _: Vec<u8> = w.try_recv(0, 0).unwrap();
                0.0
            }
        });
        let wire = bytes as f64 * m.t_w + m.t_s;
        assert!(wire < compute, "test premise: compute dominates");
        // Only the sender CPU overhead (t_s) is unavoidable; the wire time
        // fully overlaps the computation.
        let sender_clock = r.results[0];
        assert!(
            (sender_clock - (compute + m.t_s)).abs() < 1e-9,
            "overlap: clock {sender_clock} should be compute {compute} + t_s {}",
            m.t_s
        );
    }

    #[test]
    fn blocking_send_serializes() {
        // P-1 blocking sends serialize on the sender's single port — the
        // DD communication pattern.
        let p = 8;
        let bytes = 1_000_000usize;
        let r = t3e(p).run(move |comm| {
            let mut w = comm.world();
            let me = w.rank();
            for other in 0..p {
                if other != me {
                    w.send(other, 1, (), bytes);
                }
            }
            let mut got = 0;
            for other in 0..p {
                if other != me {
                    w.try_recv::<()>(other, 1).unwrap();
                    got += 1;
                }
            }
            got
        });
        assert!(r.results.iter().all(|&g| g == p - 1));
        let m = MachineProfile::cray_t3e();
        // Sender-side alone is (P-1)(t_s + b·t_w); unloading adds more.
        let min_time = (p - 1) as f64 * (m.t_s + bytes as f64 * m.t_w);
        assert!(
            r.response_time() >= min_time,
            "{} < {min_time}",
            r.response_time()
        );
    }

    #[test]
    fn allreduce_sums_across_all_ranks() {
        for p in [1, 2, 3, 4, 7, 8] {
            let r = ideal(p).run(move |comm| {
                let mut v: Vec<u64> = (0..10)
                    .map(|i| (comm.rank() as u64 + 1) * (i + 1))
                    .collect();
                comm.world().try_allreduce_sum_u64(&mut v).unwrap();
                v
            });
            let total_rank: u64 = (1..=p as u64).sum();
            for ranks_v in &r.results {
                for (i, &x) in ranks_v.iter().enumerate() {
                    assert_eq!(x, total_rank * (i as u64 + 1), "p={p} idx={i}");
                }
            }
        }
    }

    #[test]
    fn allreduce_on_vector_shorter_than_ranks() {
        let r = ideal(8).run(|comm| {
            let mut v = vec![1u64; 3];
            comm.world().try_allreduce_sum_u64(&mut v).unwrap();
            v
        });
        assert!(r.results.iter().all(|v| v == &vec![8u64; 3]));
    }

    #[test]
    fn allreduce_cost_is_order_m_not_pm() {
        // Ring reduce-scatter + allgather: per-rank time grows with M but
        // only weakly with P (startup terms), unlike a naive gather.
        let m_entries = 100_000usize;
        let time = |p: usize| {
            t3e(p)
                .run(move |comm| {
                    let mut v = vec![1u64; m_entries];
                    comm.world().try_allreduce_sum_u64(&mut v).unwrap();
                })
                .response_time()
        };
        let t4 = time(4);
        let t16 = time(16);
        assert!(
            t16 < 2.0 * t4,
            "O(M) reduction should not grow ~4x with P: {t4} -> {t16}"
        );
    }

    #[test]
    fn allgather_delivers_everyones_value_in_rank_order() {
        for p in [2, 3, 5, 8] {
            let r = ideal(p).run(|comm| {
                let mine = format!("rank{}", comm.rank());
                comm.world().try_allgather(mine, 8).unwrap()
            });
            for got in &r.results {
                let want: Vec<String> = (0..p).map(|i| format!("rank{i}")).collect();
                assert_eq!(got, &want, "p={p}");
            }
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let r = t3e(4).run(|comm| {
            // Rank 2 computes much longer than the others.
            if comm.rank() == 2 {
                comm.advance(0.5);
            }
            comm.world().try_allreduce_sum_u64(&mut [0]).unwrap();
            comm.clock()
        });
        // Nobody's post-barrier clock is below the slow rank's compute.
        for (rank, &c) in r.results.iter().enumerate() {
            assert!(c >= 0.5, "rank {rank} clock {c} escaped the barrier");
        }
    }

    #[test]
    fn scopes_partition_communication() {
        // Two disjoint pair-scopes exchange values independently.
        let r = ideal(4).run(|comm| {
            let me = comm.rank();
            let members = if me < 2 { vec![0, 1] } else { vec![2, 3] };
            let id = if me < 2 { 10 } else { 11 };
            let mut s = comm.scope(id, members);
            let peer = 1 - s.rank();
            s.send(peer, 0, me as u64, 8);
            s.try_recv::<u64>(peer, 0).unwrap()
        });
        assert_eq!(r.results, vec![1, 0, 3, 2]);
    }

    #[test]
    fn grid_scopes_like_hd() {
        // 2×3 grid: column allreduce then row allgather, mirroring HD's
        // communication structure.
        let (rows, cols) = (2usize, 3usize);
        let r = ideal(rows * cols).run(move |comm| {
            let me = comm.rank();
            let (row, col) = (me / cols, me % cols);
            // Column scope: ranks sharing `col`.
            let col_members: Vec<usize> = (0..rows).map(|r| r * cols + col).collect();
            let mut v = vec![me as u64];
            comm.scope(100 + col as u64, col_members)
                .try_allreduce_sum_u64(&mut v)
                .unwrap();
            // Row scope: ranks sharing `row`.
            let row_members: Vec<usize> = (0..cols).map(|c| row * cols + c).collect();
            let gathered = comm
                .scope(200 + row as u64, row_members)
                .try_allgather(v[0], 8)
                .unwrap();
            gathered
        });
        // Column sums: col c sums ranks {c, c+3} → {3, 5, 7}.
        for (rank, got) in r.results.iter().enumerate() {
            let _ = rank;
            assert_eq!(got, &vec![3u64, 5, 7]);
        }
    }

    #[test]
    fn io_charges_accrue() {
        let sim = Simulator::new(1).machine(MachineProfile::ibm_sp2());
        let r = sim.run(|comm| {
            comm.charge_io(20_000_000); // 20 MB at 20 MB/s = 1 s
        });
        assert!((r.ranks[0].io - 1.0).abs() < 1e-9);
        assert!((r.response_time() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_virtual_time() {
        let run_once = || {
            t3e(6)
                .run(|comm| {
                    let mut v = vec![comm.rank() as u64; 1000];
                    comm.advance(1e-4 * (comm.rank() as f64 + 1.0));
                    let mut w = comm.world();
                    w.try_allreduce_sum_u64(&mut v).unwrap();
                    let all = w.try_allgather(v[0], 8).unwrap();
                    all.len() as u64 + v[0]
                })
                .response_time()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "virtual time must not depend on thread scheduling");
    }

    #[test]
    fn stats_account_where_time_went() {
        let r = t3e(2).run(|comm| {
            comm.advance(0.01);
            let mut w = comm.world();
            let peer = 1 - w.rank();
            w.send(peer, 0, vec![0u8; 100], 100);
            let _: Vec<u8> = w.try_recv(peer, 0).unwrap();
        });
        for s in &r.ranks {
            assert!((s.busy - 0.01).abs() < 1e-12);
            assert!(s.clock >= s.busy + s.idle + s.io - 1e-12);
            assert_eq!(s.messages_sent, 1);
            assert_eq!(s.bytes_sent, 100);
            assert_eq!(s.bytes_received, 100);
        }
    }

    #[test]
    fn compute_imbalance_reported() {
        let r = ideal(4).run(|comm| {
            comm.advance(if comm.rank() == 0 { 2.0 } else { 1.0 });
            comm.world().try_allreduce_sum_u64(&mut [0]).unwrap();
        });
        // avg = 1.25, max = 2 → 0.6.
        assert!((r.compute_imbalance() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [1usize, 2, 3, 5, 8] {
            for root in 0..p {
                let r = ideal(p).run(move |comm| {
                    let mut w = comm.world();
                    let value = (w.rank() == root).then(|| format!("payload-{root}"));
                    w.try_broadcast(root, value, 16).unwrap()
                });
                assert!(
                    r.results.iter().all(|v| v == &format!("payload-{root}")),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn broadcast_cost_is_logarithmic() {
        // Binomial tree: doubling P adds one round, not P more sends.
        let bytes = 1_000_000usize;
        let time = |p: usize| {
            t3e(p)
                .run(move |comm| {
                    let mut w = comm.world();
                    let value = (w.rank() == 0).then(|| vec![0u8; 4]);
                    w.try_broadcast(0, value, bytes).unwrap();
                })
                .response_time()
        };
        let t8 = time(8);
        let t64 = time(64);
        assert!(
            t64 < 3.0 * t8,
            "log-depth broadcast should not grow ~8x: {t8} -> {t64}"
        );
    }

    #[test]
    fn gather_collects_in_member_order() {
        let r = ideal(5).run(|comm| {
            let mut w = comm.world();
            let mine = w.rank() as u64 * 10;
            w.try_gather(2, mine, 8).unwrap()
        });
        for (rank, got) in r.results.iter().enumerate() {
            if rank == 2 {
                assert_eq!(got.as_deref(), Some(&[0u64, 10, 20, 30, 40][..]));
            } else {
                assert!(got.is_none());
            }
        }
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn receive_type_mismatch_is_loud() {
        ideal(2).run(|comm| {
            let mut w = comm.world();
            if w.rank() == 0 {
                w.send(1, 0, 42u64, 8);
            } else {
                // Protocol bug: sender shipped u64, receiver expects String.
                let _: String = w.try_recv(0, 0).unwrap();
            }
        });
    }

    #[test]
    #[should_panic(expected = "member of the scope")]
    fn non_member_scope_rejected() {
        ideal(3).run(|comm| {
            if comm.rank() == 2 {
                // Rank 2 opens a scope it does not belong to.
                let _ = comm.scope(9, vec![0, 1]);
            }
        });
    }

    #[test]
    fn rank_panic_propagates_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            ideal(3).run(|comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                // Other ranks do independent work and finish.
                comm.advance(1e-6);
            })
        });
        assert!(result.is_err(), "the simulation must surface the panic");
    }

    #[test]
    fn many_ranks_run_on_one_core() {
        // 128 logical processors — the paper's full T3E — on any host.
        let r = ideal(128).run(|comm| {
            let mut v = vec![1u64; 4];
            comm.world().try_allreduce_sum_u64(&mut v).unwrap();
            v[0]
        });
        assert!(r.results.iter().all(|&x| x == 128));
    }

    // --- native backend --------------------------------------------------

    use crate::ExecBackend;

    #[test]
    fn native_backend_runs_the_same_workload() {
        let workload = |comm: &mut Comm| {
            comm.enter_pass(1);
            let mut v = vec![comm.rank() as u64 + 1; 64];
            comm.charge_counting(&crate::CountingWork {
                candidate_checks: 64,
                ..Default::default()
            });
            comm.world().try_allreduce_sum_u64(&mut v).unwrap();
            comm.charge_io(1024);
            v[0]
        };
        let sim = t3e(4).run(workload);
        let native = t3e(4).backend(ExecBackend::Native).run(workload);
        assert_eq!(sim.results, native.results, "mined values must agree");
        // One time record per rank on both backends: the brackets fit in
        // the clock, virtual on sim and measured on native.
        for s in sim.ranks.iter().chain(&native.ranks) {
            assert!(s.clock > 0.0);
            assert!(s.busy + s.idle + s.io <= s.clock + 1e-9, "{s:?}");
        }
        assert!(native.response_time() > 0.0);
        // Traffic accounting is backend-independent.
        let messages = |r: &SimResult<u64>| r.ranks.iter().map(|s| s.messages_sent).sum::<u64>();
        assert_eq!(messages(&sim), messages(&native));
        assert_eq!(sim.total_bytes(), native.total_bytes());
    }

    #[test]
    fn native_backend_runs_fault_plans_for_real() {
        // Drops + a straggler on the native backend: every message still
        // arrives (retransmit machinery), lost copies really cost wall
        // time, and the straggler's sleeps stretch its counting bracket.
        let r = t3e(2)
            .backend(ExecBackend::Native)
            .fault_plan(
                FaultPlan::new()
                    .seed(3)
                    .drop_rate(0.4)
                    .rto(2e-4)
                    .slowdown(1, 3.0),
            )
            .run(|comm| {
                let mut w = comm.world();
                if w.rank() == 0 {
                    for i in 0..50u64 {
                        w.send(1, i, i, 64);
                    }
                    0
                } else {
                    let mut sum = 0;
                    for i in 0..50u64 {
                        let got: u64 = w.try_recv(0, i).unwrap();
                        assert_eq!(got, i);
                        sum += got;
                    }
                    w.comm().advance(0.0); // charge point: bracket the recv loop
                    sum
                }
            });
        assert_eq!(r.results, vec![0, (0..50).sum::<u64>()]);
        assert!(
            r.ranks[0].retransmits > 5,
            "drop rate 0.4 over 50 sends: {} retransmits",
            r.ranks[0].retransmits
        );
        // Each retransmit slept at least one base RTO of real time.
        let min_wall = r.ranks[0].retransmits as f64 * 2e-4;
        assert!(
            r.ranks[0].clock >= min_wall,
            "sender wall {} < {} (RTO sleeps missing)",
            r.ranks[0].clock,
            min_wall
        );
    }

    #[test]
    fn native_crash_is_a_real_thread_death_detected_by_timeout() {
        // Rank 1 panics for real mid-run; rank 0's blocking receive must
        // surface Dead instead of hanging, bounded by the detector
        // deadline.
        let r = t3e(2)
            .backend(ExecBackend::Native)
            .fault_plan(
                FaultPlan::new()
                    .crash(1, CrashPoint::AtTime(2e-3))
                    .detect_timeout(1e-3),
            )
            .run_with_faults(|comm| {
                if comm.rank() == 1 {
                    // Spin past the scheduled crash time: the next charge
                    // point fires the injected panic.
                    loop {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        comm.advance(0.0);
                    }
                }
                comm.world().try_recv::<u64>(1, 5)
            });
        assert!(r.results[1].is_none(), "crashed rank yields no result");
        let fault = r.results[0].unwrap().unwrap_err();
        assert_eq!(fault, RecvFault::Dead { rank: 1, at: 2e-3 });
        assert_eq!(r.ranks[0].timeouts, 1);
        // The crashed rank's record still exists (time up to death).
        assert_eq!(r.ranks.len(), 2);
        assert!(r.ranks[1].clock >= 2e-3, "{:?}", r.ranks[1]);
    }

    #[test]
    fn native_pass_boundary_crash_fires_on_enter_pass() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let passed = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let r = t3e(2)
            .backend(ExecBackend::Native)
            .fault_plan(FaultPlan::new().crash(0, CrashPoint::AtPass(2)))
            .run_with_faults(|comm| {
                for k in 1..=2 {
                    comm.enter_pass(k);
                    comm.advance(0.0);
                    passed[comm.rank()].store(k, Ordering::Relaxed);
                }
                comm.rank()
            });
        assert!(r.results[0].is_none());
        assert_eq!(r.results[1], Some(1));
        // The dead rank finished pass 1 and died entering pass 2.
        assert_eq!(passed[0].load(Ordering::Relaxed), 1);
        assert_eq!(passed[1].load(Ordering::Relaxed), 2);
    }

    #[test]
    fn native_delayed_messages_wait_out_their_deadline() {
        let delay = 5e-3;
        let r = t3e(2)
            .backend(ExecBackend::Native)
            .fault_plan(FaultPlan::new().seed(7).delays(1.0, delay))
            .run(move |comm| {
                let mut w = comm.world();
                if w.rank() == 0 {
                    w.send(1, 0, 42u64, 8);
                    0.0
                } else {
                    let _: u64 = w.try_recv(0, 0).unwrap();
                    w.comm().clock()
                }
            });
        // delay_rate 1.0: the receive cannot complete before the delayed
        // copy's wall-clock arrival deadline.
        assert!(
            r.results[1] >= delay,
            "receiver finished at {} < delay {delay}",
            r.results[1]
        );
    }

    // --- fault injection -------------------------------------------------

    use crate::{CrashPoint, FaultPlan, RecvFault};

    #[test]
    fn dropped_messages_are_retransmitted_and_charged() {
        let workload = |comm: &mut Comm| {
            let mut w = comm.world();
            if w.rank() == 0 {
                for i in 0..200u64 {
                    w.send(1, i, i, 64);
                }
            } else {
                for i in 0..200u64 {
                    let got: u64 = w.try_recv(0, i).unwrap();
                    assert_eq!(got, i);
                }
            }
            w.comm().clock()
        };
        let clean = t3e(2).run(workload);
        let faulty = t3e(2)
            .fault_plan(FaultPlan::new().seed(3).drop_rate(0.3).rto(1e-5))
            .run(workload);
        // Every message still arrives intact, but lost copies cost the
        // sender retransmits and virtual time.
        assert!(
            faulty.ranks[0].retransmits > 10,
            "drop rate 0.3 over 200 sends"
        );
        assert!(faulty.response_time() > clean.response_time());
        // Only delivered copies count as traffic.
        assert_eq!(faulty.ranks[0].messages_sent, clean.ranks[0].messages_sent);
    }

    #[test]
    fn fault_decisions_are_bit_deterministic() {
        let run_once = || {
            t3e(4)
                .fault_plan(
                    FaultPlan::new()
                        .seed(11)
                        .drop_rate(0.2)
                        .delays(0.1, 5e-4)
                        .rto(1e-5)
                        .slowdown(2, 3.0),
                )
                .run(|comm| {
                    comm.advance(1e-4);
                    let mut v = vec![comm.rank() as u64; 500];
                    let mut w = comm.world();
                    w.try_allreduce_sum_u64(&mut v).unwrap();
                    w.try_allgather(v[0], 8).unwrap()
                })
        };
        let a = run_once();
        let b = run_once();
        for (x, y) in a.ranks.iter().zip(&b.ranks) {
            assert_eq!(x.clock.to_bits(), y.clock.to_bits());
            assert_eq!(x.idle.to_bits(), y.idle.to_bits());
            assert_eq!(x.retransmits, y.retransmits);
        }
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn stragglers_scale_compute_charges() {
        let r = t3e(2)
            .fault_plan(FaultPlan::new().slowdown(1, 2.0))
            .run(|comm| {
                comm.advance(0.25);
                comm.clock()
            });
        assert!((r.ranks[0].busy - 0.25).abs() < 1e-12);
        assert!((r.ranks[1].busy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cluster_speeds_scale_compute_charges() {
        use crate::ClusterProfile;
        // Rank 1 at half speed: its compute charges double, mirroring a
        // fault-plan slowdown of 2.
        let r = Simulator::new(2)
            .cluster(ClusterProfile::default().speed(1, 0.5))
            .run(|comm| {
                comm.advance(0.25);
                comm.clock()
            });
        assert!((r.ranks[0].busy - 0.25).abs() < 1e-12);
        assert!((r.ranks[1].busy - 0.5).abs() < 1e-12);
        // A fast rank (speed 2.0) halves its charges.
        let r = Simulator::new(2)
            .cluster(ClusterProfile::default().speed(1, 2.0))
            .run(|comm| {
                comm.advance(0.25);
                comm.clock()
            });
        assert!((r.ranks[1].busy - 0.125).abs() < 1e-12);
    }

    #[test]
    fn cluster_and_straggler_slowdowns_compose() {
        use crate::ClusterProfile;
        // speed 0.5 (×2) on top of a plan slowdown of 3 → ×6.
        let r = Simulator::new(2)
            .cluster(ClusterProfile::default().speed(1, 0.5))
            .fault_plan(FaultPlan::new().slowdown(1, 3.0))
            .run(|comm| {
                comm.advance(0.1);
                comm.clock()
            });
        assert!((r.ranks[0].busy - 0.1).abs() < 1e-12);
        assert!((r.ranks[1].busy - 0.6).abs() < 1e-12);
    }

    #[test]
    fn uniform_cluster_changes_nothing() {
        use crate::ClusterProfile;
        let workload = |comm: &mut Comm| {
            comm.advance(1e-4);
            let mut v = vec![comm.rank() as u64; 100];
            comm.world().try_allreduce_sum_u64(&mut v).unwrap();
            comm.clock()
        };
        let bare = t3e(4).run(workload);
        let uniform = Simulator::new(4)
            .cluster(ClusterProfile::uniform(MachineProfile::cray_t3e()))
            .run(workload);
        for (a, b) in bare.ranks.iter().zip(&uniform.ranks) {
            assert_eq!(a.clock.to_bits(), b.clock.to_bits());
            assert_eq!(a.busy.to_bits(), b.busy.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "invalid cluster profile")]
    fn out_of_range_cluster_rank_rejected() {
        let _ = Simulator::new(2).cluster(crate::ClusterProfile::default().speed(5, 0.5));
    }

    #[test]
    fn native_cluster_speeds_sleep_for_real() {
        use crate::ClusterProfile;
        // A half-speed rank on the native backend really sleeps out the
        // extra time: its 5 ms bracket is padded by another 5 ms. Only the
        // lower bound is asserted — sleeps overrun under load, never
        // undershoot, whereas comparing the two ranks' brackets would
        // compare two wall-clock readings.
        let r = Simulator::new(2)
            .cluster(ClusterProfile::default().speed(1, 0.5))
            .backend(ExecBackend::Native)
            .run(|comm| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                comm.advance(0.0);
                comm.rank()
            });
        assert_eq!(r.results, vec![0, 1]);
        assert!(r.ranks[1].busy >= 9e-3, "5ms bracket + 5ms pad expected");
    }

    #[test]
    fn crash_surfaces_as_recv_fault_not_a_hang() {
        let crash_at = 1e-3;
        let r = t3e(2)
            .fault_plan(FaultPlan::new().crash(1, CrashPoint::AtTime(crash_at)))
            .run_with_faults(move |comm| {
                if comm.rank() == 1 {
                    comm.advance(1.0); // crosses the crash time
                    unreachable!("rank 1 must crash mid-advance");
                }
                comm.world().try_recv::<u64>(1, 5)
            });
        assert!(r.results[1].is_none(), "crashed rank yields no result");
        let fault = r.results[0].unwrap().unwrap_err();
        assert_eq!(
            fault,
            RecvFault::Dead {
                rank: 1,
                at: crash_at
            }
        );
        assert_eq!(r.ranks[0].timeouts, 1);
        // Crash time is exact despite being crossed mid-charge.
        assert_eq!(r.ranks[1].clock.to_bits(), crash_at.to_bits());
    }

    #[test]
    fn messages_sent_before_a_crash_still_arrive() {
        let r = t3e(2)
            .fault_plan(FaultPlan::new().crash(1, CrashPoint::AtTime(1e-3)))
            .run_with_faults(|comm| {
                if comm.rank() == 1 {
                    comm.world().send(0, 3, 99u64, 8);
                    comm.advance(1.0);
                    unreachable!();
                }
                let mut w = comm.world();
                let first: Result<u64, RecvFault> = w.try_recv(1, 3);
                let second: Result<u64, RecvFault> = w.try_recv(1, 4);
                (first, second)
            });
        let (first, second) = r.results[0].unwrap();
        assert_eq!(first, Ok(99), "pre-crash message must be delivered");
        assert!(matches!(second, Err(RecvFault::Dead { rank: 1, .. })));
    }

    #[test]
    fn pass_boundary_crash_fires_on_enter_pass() {
        let r = t3e(2)
            .fault_plan(FaultPlan::new().crash(0, CrashPoint::AtPass(2)))
            .run_with_faults(|comm| {
                comm.enter_pass(1);
                comm.advance(1e-4);
                comm.enter_pass(2);
                comm.advance(1e-4);
                comm.rank()
            });
        assert!(r.results[0].is_none());
        assert_eq!(r.results[1], Some(1));
    }

    #[test]
    fn abort_notifications_fail_same_epoch_receives_only() {
        let r = t3e(2)
            .fault_plan(FaultPlan::new().crash(0, CrashPoint::AtPass(999)))
            .run_with_faults(|comm| {
                if comm.rank() == 0 {
                    comm.send_abort(&[1], 0);
                    comm.world().send(1, 10, 42u64, 8);
                    return (Err(RecvFault::Aborted { rank: 0, at: 0.0 }), Ok(0));
                }
                let aborted: Result<u64, RecvFault> = comm.world().try_recv(0, 9);
                // Sync receives ignore aborts: the data on tag 10 arrives.
                let sync: Result<u64, RecvFault> = comm.world().try_recv_sync(0, 10);
                (aborted, sync)
            });
        let (aborted, sync) = r.results[1].unwrap();
        assert!(matches!(aborted, Err(RecvFault::Aborted { rank: 0, .. })));
        assert_eq!(sync, Ok(42));
    }

    #[test]
    fn all_ranks_crashing_returns_all_none() {
        let r = t3e(3)
            .fault_plan(
                FaultPlan::new()
                    .crash(0, CrashPoint::AtTime(1e-4))
                    .crash(1, CrashPoint::AtTime(2e-4))
                    .crash(2, CrashPoint::AtTime(5e-4)),
            )
            .run_with_faults(|comm| {
                comm.advance(1.0);
                comm.rank()
            });
        assert!(r.results.iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "exited without sending")]
    fn receive_from_exited_peer_panics_with_diagnostic() {
        ideal(2).run(|comm| {
            if comm.rank() == 1 {
                // Rank 0 finishes without ever sending: this must be a
                // loud protocol-bug panic naming both ranks and the tag,
                // not a silent hang.
                let _: u64 = comm.world().try_recv(0, 3).unwrap();
            }
        });
    }

    #[test]
    #[should_panic(expected = "use run_with_faults")]
    fn run_rejects_crashing_plans() {
        t3e(2)
            .fault_plan(FaultPlan::new().crash(0, CrashPoint::AtTime(1.0)))
            .run(|comm| comm.rank());
    }

    #[test]
    fn fault_free_plans_change_nothing() {
        let workload = |comm: &mut Comm| {
            let mut v = vec![comm.rank() as u64; 100];
            comm.world().try_allreduce_sum_u64(&mut v).unwrap();
            comm.clock()
        };
        let bare = t3e(4).run(workload);
        let planned = t3e(4).fault_plan(FaultPlan::new().seed(5)).run(workload);
        for (a, b) in bare.ranks.iter().zip(&planned.ranks) {
            assert_eq!(a.clock.to_bits(), b.clock.to_bits());
            assert_eq!(a.retransmits, 0);
            assert_eq!(b.retransmits, 0);
        }
    }
}

#[cfg(test)]
mod race_probe {
    use super::*;
    use crate::{CrashPoint, ExecBackend, FaultPlan};

    /// A send to a rank whose thread has ended (it returned or crashed)
    /// meets a closed mailbox and is dropped; the run goes on.
    #[test]
    fn send_to_exited_crashed_rank() {
        // A payload that signals when it is dropped. Sent to a rank that
        // never reads it, it is dropped when that rank's mailbox closes.
        struct Probe(std::sync::mpsc::Sender<()>);
        impl Drop for Probe {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        for backend in [ExecBackend::Sim, ExecBackend::Native] {
            let r = Simulator::new(3)
                .machine(MachineProfile::cray_t3e())
                .backend(backend)
                .fault_plan(FaultPlan::new().crash(2, CrashPoint::AtPass(1)))
                .run_with_faults(|comm| {
                    comm.enter_pass(1); // rank 2 crashes here
                    if comm.rank() == 1 {
                        return 1;
                    }
                    for peer in [1, 2] {
                        // Wait until the peer's thread has ended and its
                        // mailbox has closed.
                        let (closed, on_close) = std::sync::mpsc::channel();
                        comm.world().send(peer, 0, Probe(closed), 8);
                        on_close
                            .recv_timeout(std::time::Duration::from_secs(60))
                            .expect("an ended rank's mailbox closes");
                        // A data message and a control packet both meet
                        // the closed mailbox.
                        comm.world().send(peer, 1, 42u64, 8);
                        comm.send_abort(&[peer], 0);
                    }
                    // The crash still reads as a crash.
                    let fault = comm.world().try_recv::<u64>(2, 2).unwrap_err();
                    assert_eq!(fault.rank(), 2);
                    0
                });
            assert_eq!(r.results, vec![Some(0), Some(1), None], "{backend:?}");
            assert_eq!(r.ranks[0].messages_sent, 4, "{backend:?}");
        }
    }
}
