#![warn(missing_docs)]

//! # armine-mpsim
//!
//! A deterministic message-passing multicomputer simulator — the stand-in
//! for the paper's 128-processor Cray T3E and 16-node IBM SP2.
//!
//! Each logical processor runs as a real OS thread exchanging typed
//! messages over channels, so the algorithms *really execute* (hash trees
//! are built, counts are exchanged, results are exact). Time, however, is
//! **virtual**: every rank carries a clock advanced by
//!
//! * explicit compute charges ([`Comm::advance`]) priced from counted
//!   counting-structure operations (batched through
//!   [`Comm::charge_counting`] and a structure-agnostic [`CountingWork`]
//!   ledger),
//! * message costs under a postal model — per-message startup `t_s`,
//!   per-byte link occupancy `t_w` at the sender, per-byte unload at the
//!   single-ported receiver, and per-hop latency from the [`Topology`] —
//! * and optional I/O charges ([`Comm::charge_io`]) for re-scanning a
//!   disk-resident database.
//!
//! Message causality (`recv completes no earlier than the message's
//! arrival time`) and the collectives' communication rounds propagate
//! clocks between ranks, so the *response time* of a run — the maximum
//! final clock — reproduces the paper's scaling curves for any processor
//! count, independent of how many physical cores the host has.
//!
//! ## Example
//!
//! ```
//! use armine_mpsim::{Simulator, MachineProfile};
//!
//! let sim = Simulator::new(4).machine(MachineProfile::cray_t3e());
//! let result = sim.run(|comm| {
//!     let mut counts = vec![comm.rank() as u64 + 1; 8];
//!     let mut world = comm.world();
//!     world.try_allreduce_sum_u64(&mut counts).expect("no rank crashes");
//!     counts[0]
//! });
//! // 1 + 2 + 3 + 4 summed on every rank.
//! assert!(result.results.iter().all(|&c| c == 10));
//! assert!(result.response_time() > 0.0, "communication takes virtual time");
//! ```

//! ## Heterogeneous clusters
//!
//! A [`ClusterProfile`] describes a machine whose ranks are not all the
//! same speed: a base [`MachineProfile`] plus per-rank relative `speed`
//! factors, loadable from a small text file
//! ([`Simulator::cluster`]). Per-rank speeds multiply compute charges on
//! the sim backend and stretch counting brackets with real sleeps on the
//! native one; fault-plan straggler slowdowns ride the same combined
//! per-rank multiplier.

//! ## Fault injection
//!
//! A [`FaultPlan`] makes the simulated machine unreliable — deterministic
//! message loss with retransmit/backoff charged to the virtual clock,
//! per-rank compute slowdowns (stragglers), and rank crashes surfaced to
//! peers as failed receives ([`RecvFault`]) rather than hangs. Crashing
//! plans run through [`Simulator::run_with_faults`]; every fault decision
//! is a pure function of the plan seed and virtual state, so the same
//! plan reproduces bit-identical clocks and fault counters.

//! ## Execution backends
//!
//! [`Simulator::backend`] selects between the default virtual-time mode
//! ([`ExecBackend::Sim`]) and a native wall-clock mode
//! ([`ExecBackend::Native`]) where the same rank threads run at full
//! hardware speed: the rank's clock measures instead of pricing, so each
//! charge point attributes the real time elapsed since the previous one
//! to its compute/exchange/io category, and each rank's [`RankStats`]
//! in [`SimResult::ranks`] report those wall seconds as `busy`/`idle`/`io`
//! — the same record a sim run fills with virtual seconds. Mined results
//! are identical across backends, and fault plans run on both: injected
//! faults are real on the native one (thread deaths, sleeps, wall-clock
//! retransmit timers).

mod clock;
mod comm;
mod fault;
mod machine;
mod message;
mod runtime;
mod scenario;
mod stats;
mod topology;
mod wall;

pub use comm::{Comm, RecvFault, RecvHandle, Scope, SendHandle};
pub use fault::{CrashPoint, FaultPlan};
pub use machine::{ClusterProfile, CountingWork, MachinePreset, MachineProfile};
pub use runtime::{SimResult, Simulator};
pub use stats::{imbalance, RankStats};
pub use topology::Topology;
pub use wall::{ExecBackend, WallTimings};
