//! The per-rank communicator: clocks, point-to-point messaging, and
//! collectives.

use crate::clock::{Category, Clock};
use crate::fault::{FaultPlan, DECISION_DELAY, DECISION_DROP};
use crate::machine::{CountingWork, MachineProfile};
use crate::message::{Envelope, MatchKey, Packet};
use crate::stats::RankStats;
use crate::topology::Topology;
use crate::wall::ExecBackend;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Handle of a non-blocking send; [`Scope::wait_send`] synchronizes the
/// sender's clock with the link-occupancy completion time.
#[derive(Debug, Clone, Copy)]
#[must_use = "a pending isend must be waited on"]
pub struct SendHandle {
    completion: f64,
}

/// Handle of a posted receive; [`Scope::try_wait_recv`] blocks until the
/// matching message exists and advances the clock to its arrival.
#[derive(Debug, Clone, Copy)]
#[must_use = "a posted irecv must be waited on"]
pub struct RecvHandle {
    key: MatchKey,
}

/// Why a fault-aware receive completed exceptionally instead of
/// delivering a message. Failure detection is deterministic: a receive
/// fails if and only if the awaited sender crashed or aborted *before
/// sending* the matched message in its own virtual program order (the
/// per-sender FIFO channel makes "before" well defined).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecvFault {
    /// The awaited sender crashed before sending.
    Dead {
        /// Global rank of the crashed sender.
        rank: usize,
        /// Virtual time of the crash.
        at: f64,
    },
    /// The awaited sender abandoned the current attempt epoch before
    /// sending (it observed a fault and is headed for recovery).
    Aborted {
        /// Global rank of the aborting sender.
        rank: usize,
        /// Virtual time of the abort.
        at: f64,
    },
}

impl RecvFault {
    /// The peer rank this fault is about.
    pub fn rank(&self) -> usize {
        match *self {
            RecvFault::Dead { rank, .. } | RecvFault::Aborted { rank, .. } => rank,
        }
    }
}

impl std::fmt::Display for RecvFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RecvFault::Dead { rank, at } => write!(f, "rank {rank} crashed at t={at}"),
            RecvFault::Aborted { rank, at } => {
                write!(f, "rank {rank} aborted the attempt at t={at}")
            }
        }
    }
}

/// Panic payload used by injected crashes to unwind a rank's thread; the
/// runtime catches it and records the rank as crashed instead of
/// propagating the panic.
pub(crate) struct CrashUnwind {
    #[allow(dead_code)] // diagnostic field, read by Debug in panic output
    pub rank: usize,
    #[allow(dead_code)]
    pub at: f64,
}

/// Panic payload for receives that fail because the awaited peer itself
/// panicked: the runtime suppresses these in favour of the root-cause
/// panic when both unwound.
pub(crate) struct SecondaryPanic(pub String);

/// One rank's endpoint: clock, mailboxes to every peer, and accounting.
/// Obtain [`Scope`]s from it to actually communicate.
pub struct Comm {
    rank: usize,
    size: usize,
    machine: MachineProfile,
    topology: Topology,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    pending: VecDeque<Envelope>,
    /// Virtual or wall, chosen once by the run's [`ExecBackend`]; every
    /// charge point below is one call into it.
    clock: Clock,
    /// Traffic and fault counters; the time fields are filled from the
    /// clock on the way out.
    stats: RankStats,
    // --- fault layer -----------------------------------------------------
    plan: Option<Arc<FaultPlan>>,
    /// Pending injected crash, fired when the clock reaches this time.
    crash_time: Option<f64>,
    /// Pending injected crash, fired on entering this pass.
    crash_pass: Option<usize>,
    /// Per-destination data-message sequence numbers (fault decisions).
    link_seq: Vec<u64>,
    /// Current recovery-protocol attempt epoch (abort matching).
    epoch: u64,
    /// Peers known to have crashed, with their crash times.
    dead: HashMap<usize, f64>,
    /// Peers known to have aborted, with (epoch, abort time).
    aborted: HashMap<usize, (u64, f64)>,
    /// Peers whose threads finished (true = by panic).
    exited: HashMap<usize, bool>,
}

impl Comm {
    #[allow(clippy::too_many_arguments)] // internal: called from one place
    pub(crate) fn new(
        rank: usize,
        size: usize,
        machine: MachineProfile,
        topology: Topology,
        senders: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
        plan: Option<Arc<FaultPlan>>,
        clock: Clock,
    ) -> Self {
        let (crash_time, crash_pass) = match plan.as_ref().and_then(|p| p.crash_of(rank)) {
            Some(crate::fault::CrashPoint::AtTime(t)) => (Some(t), None),
            Some(crate::fault::CrashPoint::AtPass(k)) => (None, Some(k)),
            None => (None, None),
        };
        Comm {
            rank,
            size,
            machine,
            topology,
            senders,
            inbox,
            pending: VecDeque::new(),
            clock,
            stats: RankStats::default(),
            plan,
            crash_time,
            crash_pass,
            link_seq: vec![0; size],
            epoch: 0,
            dead: HashMap::new(),
            aborted: HashMap::new(),
            exited: HashMap::new(),
        }
    }

    /// Stops the clock and hands the rank's final accounting to the
    /// runtime.
    pub(crate) fn finish(self) -> RankStats {
        let mut stats = self.stats;
        self.clock.times(&mut stats);
        stats
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the simulation.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine profile pricing this run.
    pub fn machine(&self) -> &MachineProfile {
        &self.machine
    }

    /// Current time of this rank: virtual seconds on the sim backend,
    /// wall seconds since the run started on the native one.
    pub fn clock(&self) -> f64 {
        self.clock.now()
    }

    /// The execution backend this rank runs on.
    pub fn backend(&self) -> ExecBackend {
        self.clock.backend()
    }

    /// The fault plan this simulation runs under, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_deref()
    }

    /// Fires a scheduled [`crate::CrashPoint::AtTime`] crash the moment
    /// the clock has reached it. The tombstone carries the *scheduled*
    /// time on both backends, never the time of the charge that crossed
    /// it (which on the native backend is scheduler-dependent).
    fn maybe_crash(&mut self) {
        if let Some(t) = self.crash_time {
            if self.clock.reached(t) {
                self.crash_now_at(t);
            }
        }
    }

    /// Crashes this rank now: notify every peer with a tombstone carrying
    /// the crash time `at`, then unwind the thread with a payload the
    /// runtime recognizes. On the native backend the unwind is a *real*
    /// worker-thread death — everything the rank was mid-way through is
    /// torn down for real and `catch_unwind` in the runtime is what keeps
    /// the run alive.
    fn crash_now_at(&mut self, at: f64) -> ! {
        self.crash_time = None;
        self.crash_pass = None;
        for peer in 0..self.size {
            if peer != self.rank {
                self.send_control(peer, Packet::Tombstone { at });
            }
        }
        std::panic::panic_any(CrashUnwind {
            rank: self.rank,
            at,
        });
    }

    /// Declares that this rank is entering mining pass `pass` (1-based):
    /// fires a scheduled [`crate::CrashPoint::AtPass`] crash.
    pub fn enter_pass(&mut self, pass: usize) {
        if self.crash_pass == Some(pass) {
            let at = self.clock.now();
            self.crash_now_at(at);
        }
    }

    /// Sets the recovery-protocol attempt epoch: abort notifications only
    /// fail receives whose epoch matches the aborter's.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Records one committed recovery event in this rank's counters.
    pub fn note_recovery(&mut self) {
        self.stats.recoveries += 1;
    }

    /// Notifies `peers` (global ranks) that this rank abandons attempt
    /// `epoch`; peers blocked on it in the same epoch fail their receives
    /// and join recovery instead of waiting forever. Out-of-band control
    /// traffic: free on the virtual clock.
    pub fn send_abort(&mut self, peers: &[usize], epoch: u64) {
        let at = self.clock();
        for &peer in peers {
            if peer != self.rank {
                self.send_control(peer, Packet::Abort { epoch, at });
            }
        }
    }

    /// Sends a clean/panicked exit notification to every peer (called by
    /// the runtime when a rank's closure returns or panics).
    pub(crate) fn send_goodbyes(&mut self, panicked: bool) {
        for peer in 0..self.size {
            if peer != self.rank {
                self.send_control(peer, Packet::Goodbye { panicked });
            }
        }
    }

    fn send_control(&mut self, dst: usize, packet: Packet) {
        let env = Envelope {
            key: MatchKey {
                scope: u64::MAX,
                src: self.rank,
                tag: u64::MAX,
            },
            arrival: 0.0, // control packets are absorbed, never completed
            bytes: 0,
            packet,
        };
        self.post(dst, env);
    }

    /// Puts `env` in `dst`'s mailbox. A closed mailbox means that rank's
    /// thread has ended (it returned, crashed or panicked) and nothing
    /// will read the envelope again, so it is dropped: the fate it would
    /// have met anyway, sitting unread in the dead rank's queue until the
    /// run ended. Every send goes through here.
    fn post(&self, dst: usize, env: Envelope) {
        let _ = self.senders[dst].send(env);
    }

    /// Charges `seconds` of local computation, scaled by this rank's
    /// combined slowdown factor (cluster speed × fault-plan straggler
    /// slowdown). On the native backend the price is ignored and the wall
    /// time since the previous charge point is attributed to counting
    /// instead (charge points bracket the real work they price).
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot advance time backwards");
        self.clock.charge(Category::Compute, seconds);
        self.maybe_crash();
    }

    /// Charges one batch of candidate-counting work, priced by the
    /// machine profile's per-operation constants. Structure-agnostic:
    /// whatever built the [`CountingWork`] ledger — hash tree, trie, or
    /// any future backend — is charged through the same expression.
    pub fn charge_counting(&mut self, work: &CountingWork) {
        let t = self.machine.counting_time(work);
        self.advance(t);
    }

    /// Charges I/O time for (re-)reading `bytes` from the database. Not
    /// straggler-scaled: slowdown models a slow CPU, not a slow disk.
    pub fn charge_io(&mut self, bytes: usize) {
        let t = bytes as f64 * self.machine.io_per_byte;
        self.clock.charge(Category::Io, t);
        self.maybe_crash();
    }

    /// The accumulated accounting (clock, busy, idle, traffic). On the
    /// native backend the time fields are wall measurements: `clock` is
    /// elapsed wall time, `busy` the counting bracket, `idle` the
    /// exchange bracket, `io` the I/O bracket.
    pub fn stats(&self) -> RankStats {
        let mut s = self.stats;
        self.clock.times(&mut s);
        s
    }

    /// A scope spanning every rank (MPI_COMM_WORLD).
    pub fn world(&mut self) -> Scope<'_> {
        let members = (0..self.size).collect();
        self.scope(0, members)
    }

    /// A scope over an explicit member list (a sub-communicator). Every
    /// member must call `scope` with the same `id` and list; `id`
    /// namespaces the message matching so concurrent scopes (e.g. HD's
    /// rows and columns) cannot cross-deliver.
    ///
    /// # Panics
    /// If this rank is not in `members`.
    pub fn scope(&mut self, id: u64, members: Vec<usize>) -> Scope<'_> {
        let my_index = members
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank must be a member of the scope it opens");
        Scope {
            id,
            members,
            my_index,
            comm: self,
        }
    }

    fn send_raw(
        &mut self,
        scope: u64,
        dst: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
        bytes: usize,
    ) -> SendHandle {
        // Fault injection: each lost transmission attempt costs the sender
        // a full setup + wire charge plus an exponential ack-timeout
        // backoff before the copy that gets through — on the virtual
        // clock, or slept out for real on the wall one, where a delayed
        // copy likewise carries a wall-clock arrival deadline the receiver
        // honours. Decisions are a pure function of (seed, link, per-link
        // sequence number, attempt), so fault *placement* is reproducible
        // on both backends — host scheduling never enters.
        let mut extra_delay = 0.0;
        if let Some(plan) = self.plan.clone() {
            if plan.drop_rate > 0.0 || plan.delay_rate > 0.0 {
                let seq = self.link_seq[dst];
                self.link_seq[dst] += 1;
                let mut attempt: u32 = 0;
                while plan.drop_rate > 0.0
                    && plan.u01(DECISION_DROP, self.rank, dst, seq, attempt) < plan.drop_rate
                {
                    let backoff = plan.rto * (1u64 << attempt.min(16)) as f64;
                    self.clock
                        .backoff(self.machine.t_s + bytes as f64 * self.machine.t_w, backoff);
                    self.stats.retransmits += 1;
                    self.maybe_crash();
                    attempt += 1;
                    assert!(attempt < 10_000, "retransmit runaway: drop_rate too high");
                }
                if plan.delay_rate > 0.0
                    && plan.u01(DECISION_DELAY, self.rank, dst, seq, attempt) < plan.delay_rate
                {
                    extra_delay = plan.delay;
                }
            }
        }
        let hops = self.topology.hops(self.rank, dst, self.size);
        let (completion, arrival) = self.clock.send(&self.machine, bytes, hops, extra_delay);
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        let env = Envelope {
            key: MatchKey {
                scope,
                src: self.rank,
                tag,
            },
            arrival,
            bytes,
            packet: Packet::Data(payload),
        };
        self.post(dst, env);
        self.maybe_crash();
        SendHandle { completion }
    }

    /// Records a drained control packet in the peer-status maps. Control
    /// packets ride the same FIFO channels as data, so by the time one is
    /// absorbed every message its sender sent beforehand already sits in
    /// `pending` — which makes "crashed/aborted before sending" exact.
    fn absorb_control(&mut self, env: Envelope) {
        let src = env.key.src;
        match env.packet {
            Packet::Goodbye { panicked } => {
                self.exited.insert(src, panicked);
            }
            Packet::Tombstone { at } => {
                self.dead.insert(src, at);
            }
            Packet::Abort { epoch, at } => {
                self.aborted.insert(src, (epoch, at));
            }
            Packet::Data(_) => unreachable!("data envelopes are not control packets"),
        }
    }

    /// Waits out the failure detector's confirmation window before
    /// concluding that `src` (which crashed at `at`) is dead, and counts
    /// the timeout.
    fn charge_detect(&mut self, src: usize, at: f64) -> RecvFault {
        let timeout = self.plan.as_ref().map_or(0.0, |p| p.detect_timeout);
        let target = self.clock.now().max(at) + timeout;
        self.clock.wait_until(target);
        self.stats.timeouts += 1;
        self.maybe_crash();
        RecvFault::Dead { rank: src, at }
    }

    /// Blocks (the real thread) until a message matching `key` exists, a
    /// control packet proves it never will, or the peer's exit makes the
    /// wait a protocol bug.
    fn match_raw_ft(&mut self, key: MatchKey, honor_aborts: bool) -> Result<Envelope, RecvFault> {
        if let Some(pos) = self.pending.iter().position(|e| e.key == key) {
            return Ok(self.pending.remove(pos).unwrap());
        }
        loop {
            // The awaited sender's fate, checked only after any message it
            // sent beforehand has been drained into `pending` (FIFO).
            if let Some(&at) = self.dead.get(&key.src) {
                return Err(self.charge_detect(key.src, at));
            }
            if honor_aborts {
                if let Some(&(epoch, at)) = self.aborted.get(&key.src) {
                    if epoch == self.epoch {
                        self.clock.wait_until(at);
                        self.maybe_crash();
                        return Err(RecvFault::Aborted { rank: key.src, at });
                    }
                }
            }
            if let Some(&panicked) = self.exited.get(&key.src) {
                if panicked {
                    std::panic::panic_any(SecondaryPanic(format!(
                        "rank {} cannot complete a receive from rank {} (scope {}, tag {:#x}): \
                         that rank panicked",
                        self.rank, key.src, key.scope, key.tag
                    )));
                }
                panic!(
                    "receive will never complete: sender rank {} exited without sending \
                     to receiver rank {} (scope {}, tag {:#x})",
                    key.src, self.rank, key.scope, key.tag
                );
            }
            // A rank due to die must not sit forever in a receive its own
            // death would unblock: where real time passes while the thread
            // blocks, the wait ends when the scheduled crash comes due.
            // (Peer fates only change when control packets are drained, so
            // nothing else needs a wake-up.) With no crash due the wait is
            // `Duration::MAX`, whose deadline overflows: std then blocks
            // until a message comes.
            let due = self.crash_time.and_then(|t| self.clock.real_time_until(t));
            let env = match self.inbox.recv_timeout(due.unwrap_or(Duration::MAX)) {
                Ok(env) => env,
                Err(RecvTimeoutError::Timeout) => {
                    self.maybe_crash();
                    continue;
                }
                // `senders[self.rank]` is this rank's own sender to its
                // inbox, so the channel cannot disconnect while it waits.
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("a rank holds a sender to its own inbox")
                }
            };
            if env.is_data() {
                if env.key == key {
                    return Ok(env);
                }
                self.pending.push_back(env);
            } else {
                self.absorb_control(env);
            }
        }
    }

    fn complete_recv(&mut self, env: &Envelope) {
        // Causality: cannot complete before the message arrived. (On the
        // native backend the blocking wait already happened for real; only
        // a copy an injected fault delayed still has a deadline to wait
        // out.)
        self.clock.wait_until(env.arrival);
        // Single-ported receiver: unloading the message occupies the
        // network interface for its wire time. Draining many messages
        // therefore serializes — the DD all-to-all penalty.
        self.clock
            .charge(Category::Exchange, env.bytes as f64 * self.machine.t_w);
        self.stats.messages_received += 1;
        self.stats.bytes_received += env.bytes as u64;
        self.maybe_crash();
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("clock", &self.clock.now())
            .finish()
    }
}

/// A communication scope (MPI communicator): a set of member ranks with
/// local numbering. All addressing below is in **local ranks** (indices
/// into the member list).
pub struct Scope<'a> {
    id: u64,
    members: Vec<usize>,
    my_index: usize,
    comm: &'a mut Comm,
}

/// Tag bit reserved for collective-internal messages so they can never
/// collide with user point-to-point tags.
const COLLECTIVE_TAG: u64 = 1 << 62;

impl<'a> Scope<'a> {
    /// Local rank within this scope.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The underlying communicator (clock, compute charges).
    pub fn comm(&mut self) -> &mut Comm {
        self.comm
    }

    /// Right neighbour on the scope's logical ring.
    pub fn right(&self) -> usize {
        (self.my_index + 1) % self.members.len()
    }

    /// Left neighbour on the scope's logical ring.
    pub fn left(&self) -> usize {
        (self.my_index + self.members.len() - 1) % self.members.len()
    }

    /// Non-blocking send of `value` (`bytes` on the wire) to local rank
    /// `to`. The message is immediately in flight; the handle carries the
    /// sender-side completion time.
    ///
    /// The payload moves by **ownership transfer**, never by copy: the
    /// boxed value crosses threads as-is, so shared-ownership payloads
    /// (e.g. `Arc<[T]>` transaction pages) cost one refcount bump per
    /// hop regardless of size. Virtual wire cost is charged entirely
    /// from the caller-supplied logical `bytes`, so sharing the payload
    /// leaves every simulated output (clocks, traffic) bit-identical.
    pub fn isend<T: Send + 'static>(
        &mut self,
        to: usize,
        tag: u64,
        value: T,
        bytes: usize,
    ) -> SendHandle {
        let dst = self.members[to];
        self.comm
            .send_raw(self.id, dst, tag, Box::new(value), bytes)
    }

    /// Blocking send: the clock advances over the full link occupancy.
    pub fn send<T: Send + 'static>(&mut self, to: usize, tag: u64, value: T, bytes: usize) {
        let h = self.isend(to, tag, value, bytes);
        self.wait_send(h);
    }

    /// Synchronizes the clock with a pending send's completion.
    pub fn wait_send(&mut self, handle: SendHandle) {
        self.comm.clock.occupy_until(handle.completion);
        self.comm.maybe_crash();
    }

    /// Posts a receive from local rank `from` with `tag`.
    pub fn irecv(&mut self, from: usize, tag: u64) -> RecvHandle {
        RecvHandle {
            key: MatchKey {
                scope: self.id,
                src: self.members[from],
                tag,
            },
        }
    }

    fn unpack<T: Send + 'static>(key: MatchKey, env: Envelope) -> T {
        let Packet::Data(payload) = env.packet else {
            unreachable!("matched envelopes carry data")
        };
        *payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving {:?}: expected {}",
                key,
                std::any::type_name::<T>()
            )
        })
    }

    /// Completes a posted receive: blocks until the message exists,
    /// advances the clock to its arrival (idle time), charges unload.
    /// Fails (after charging the failure-detector wait) if the awaited
    /// sender crashed, or aborted the current attempt epoch, before
    /// sending.
    ///
    /// # Panics
    /// On payload type mismatch, or if the peer exited without either
    /// sending or crashing (a protocol bug, not an injected fault).
    pub fn try_wait_recv<T: Send + 'static>(&mut self, handle: RecvHandle) -> Result<T, RecvFault> {
        let env = self.comm.match_raw_ft(handle.key, true)?;
        self.comm.complete_recv(&env);
        Ok(Self::unpack(handle.key, env))
    }

    /// Blocking receive (see [`Scope::try_wait_recv`]).
    pub fn try_recv<T: Send + 'static>(&mut self, from: usize, tag: u64) -> Result<T, RecvFault> {
        let h = self.irecv(from, tag);
        self.try_wait_recv(h)
    }

    /// Like [`Scope::try_recv`] but ignores abort notifications: only a
    /// peer *crash* fails the receive. Recovery protocols use this for
    /// their membership-sync rounds, which aborting peers still
    /// participate in.
    pub fn try_recv_sync<T: Send + 'static>(
        &mut self,
        from: usize,
        tag: u64,
    ) -> Result<T, RecvFault> {
        let h = self.irecv(from, tag);
        let env = self.comm.match_raw_ft(h.key, false)?;
        self.comm.complete_recv(&env);
        Ok(Self::unpack(h.key, env))
    }

    /// Global sum of a `u64` vector across the scope, in place, on every
    /// member — CD's "global reduction operation". Implemented as a ring
    /// reduce-scatter followed by a ring all-gather: `2(P−1)` messages of
    /// `M/P` entries each, i.e. `O(M)` total bytes per rank, matching the
    /// `O(M)` reduction term of Equation 4. A 1-word call is the barrier:
    /// no member leaves (in virtual time) much before the others arrive.
    ///
    /// Fails when a ring neighbour crashes or aborts mid-collective; the
    /// vector is then left in an unspecified (but deterministic) partial
    /// state.
    pub fn try_allreduce_sum_u64(&mut self, v: &mut [u64]) -> Result<(), RecvFault> {
        let p = self.members.len();
        if p == 1 || v.is_empty() {
            return Ok(());
        }
        let n = v.len();
        let chunk_bounds = move |i: usize| -> (usize, usize) { (i * n / p, (i + 1) * n / p) };
        let me = self.my_index;
        let (right, left) = (self.right(), self.left());
        // Phase 1 — reduce-scatter: after P−1 steps, rank r holds the
        // fully reduced chunk (r+1) mod P.
        for s in 0..p - 1 {
            let send_idx = (me + p - s) % p;
            let recv_idx = (me + p - s - 1) % p;
            let (slo, shi) = chunk_bounds(send_idx);
            let chunk: Vec<u64> = v[slo..shi].to_vec();
            let sh = self.isend(right, COLLECTIVE_TAG | s as u64, chunk, (shi - slo) * 8);
            let incoming: Vec<u64> = self.try_recv(left, COLLECTIVE_TAG | s as u64)?;
            self.wait_send(sh);
            let (rlo, rhi) = chunk_bounds(recv_idx);
            debug_assert_eq!(incoming.len(), rhi - rlo);
            for (dst, src) in v[rlo..rhi].iter_mut().zip(&incoming) {
                *dst += src;
            }
        }
        // Phase 2 — all-gather the reduced chunks.
        for s in 0..p - 1 {
            let send_idx = (me + 1 + p - s) % p;
            let recv_idx = (me + p - s) % p;
            let (slo, shi) = chunk_bounds(send_idx);
            let chunk: Vec<u64> = v[slo..shi].to_vec();
            let tag = COLLECTIVE_TAG | (1 << 32) | s as u64;
            let sh = self.isend(right, tag, chunk, (shi - slo) * 8);
            let incoming: Vec<u64> = self.try_recv(left, tag)?;
            self.wait_send(sh);
            let (rlo, rhi) = chunk_bounds(recv_idx);
            debug_assert_eq!(incoming.len(), rhi - rlo);
            v[rlo..rhi].copy_from_slice(&incoming);
        }
        Ok(())
    }

    /// All-to-all broadcast: every member contributes `value` and receives
    /// everyone's, ordered by local rank — the primitive DD and IDD use to
    /// exchange per-partition frequent itemsets. Ring algorithm: `P−1`
    /// store-and-forward steps. Fails when a ring neighbour crashes or
    /// aborts mid-collective.
    pub fn try_allgather<T: Clone + Send + 'static>(
        &mut self,
        value: T,
        bytes: usize,
    ) -> Result<Vec<T>, RecvFault> {
        let p = self.members.len();
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        out[self.my_index] = Some(value.clone());
        let (right, left) = (self.right(), self.left());
        let mut current = value;
        for s in 0..p - 1 {
            let tag = COLLECTIVE_TAG | (2 << 32) | s as u64;
            let sh = self.isend(right, tag, current, bytes);
            current = self.try_recv(left, tag)?;
            self.wait_send(sh);
            let origin = (self.my_index + p - 1 - s) % p;
            out[origin] = Some(current.clone());
        }
        Ok(out.into_iter().map(Option::unwrap).collect())
    }

    /// One-to-all broadcast from local rank `root`, binomial-tree
    /// algorithm: `⌈log₂ P⌉` rounds, so a large value reaches everyone in
    /// `O(log P · (t_s + m·t_w))`. Returns the value on every member;
    /// fails when the member this rank would receive its copy from crashed
    /// or aborted mid-collective.
    pub fn try_broadcast<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        value: Option<T>,
        bytes: usize,
    ) -> Result<T, RecvFault> {
        let p = self.members.len();
        assert!(root < p, "broadcast root out of range");
        // Work in root-relative rank space so the binomial tree always
        // roots at 0.
        let me = (self.my_index + p - root) % p;
        let mut have: Option<T> = if me == 0 {
            Some(value.expect("root must supply the broadcast value"))
        } else {
            None
        };
        let rounds = p.next_power_of_two().trailing_zeros() as usize;
        for round in 0..rounds {
            let bit = 1usize << round;
            let tag = COLLECTIVE_TAG | (3 << 32) | round as u64;
            if me < bit {
                // I already hold the value: send to my partner if it exists.
                let partner = me + bit;
                if partner < p {
                    let to = (partner + root) % p;
                    let v = have.clone().expect("sender must hold the value");
                    self.send(to, tag, v, bytes);
                }
            } else if me < 2 * bit {
                let partner = me - bit;
                let from = (partner + root) % p;
                have = Some(self.try_recv(from, tag)?);
            }
        }
        Ok(have.expect("broadcast must deliver to every member"))
    }

    /// All-to-one gather to local rank `root`: returns `Some(values)` in
    /// member order at the root, `None` elsewhere. Linear algorithm (the
    /// root's single port serializes the receives anyway). The root fails
    /// when a contributing member crashed or aborted before sending.
    pub fn try_gather<T: Send + 'static>(
        &mut self,
        root: usize,
        value: T,
        bytes: usize,
    ) -> Result<Option<Vec<T>>, RecvFault> {
        let p = self.members.len();
        assert!(root < p, "gather root out of range");
        let tag = COLLECTIVE_TAG | 4 << 32;
        if self.my_index == root {
            let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
            out[root] = Some(value);
            #[allow(clippy::needless_range_loop)] // `from` is a rank, not just an index
            for from in 0..p {
                if from != root {
                    out[from] = Some(self.try_recv(from, tag)?);
                }
            }
            Ok(Some(out.into_iter().map(Option::unwrap).collect()))
        } else {
            self.send(root, tag, value, bytes);
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    // Comm cannot be constructed without the runtime; the behavioural
    // tests live in runtime.rs where simulations can be spawned.
    use super::COLLECTIVE_TAG;

    #[test]
    fn collective_tags_do_not_collide_with_user_space() {
        // User tags in the parallel crate stay far below 2^62.
        assert!(COLLECTIVE_TAG > u32::MAX as u64);
    }
}
