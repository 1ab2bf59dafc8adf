//! The per-rank clock: the one place that knows whether time is virtual
//! or real.
//!
//! [`crate::Comm`] prices a run at a fixed set of charge points — compute
//! (`t_travers`, `t_check`, `t_insert`…), I/O, and postal communication
//! (`t_s`, `t_w`) — and each charge point is one call into this type. The
//! *virtual* clock adds the priced seconds; the *wall* clock ignores the
//! price and measures, attributing the real time elapsed since the previous
//! charge point to the category being charged (every charge point sits
//! immediately after the real work it prices, so that bracket belongs to
//! it). Waits and backoffs advance the virtual clock and really sleep on
//! the wall one.
//!
//! The virtual arm owns the historical f64 expressions and their
//! evaluation order: the golden fingerprints are bit-exact functions of
//! them.

use crate::machine::MachineProfile;
use crate::stats::RankStats;
use crate::wall::ExecBackend;
use std::time::{Duration, Instant};

/// What a charge point pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Category {
    /// Candidate counting and other local computation (`busy`).
    Compute,
    /// Message handling; on the virtual clock the residual
    /// [`RankStats::comm_time`], with no bucket of its own.
    Exchange,
    /// Database scans (`io`).
    Io,
}

/// One rank's clock.
pub(crate) struct Clock {
    /// Combined compute multiplier of this rank: fault-plan straggler
    /// slowdown × cluster slowdown (1/speed). 1.0 on a homogeneous
    /// fault-free machine.
    slowdown: f64,
    kind: Kind,
}

enum Kind {
    Virtual {
        now: f64,
        busy: f64,
        idle: f64,
        io: f64,
    },
    Wall(Wall),
}

/// Measurement state of the wall clock.
struct Wall {
    /// Shared by every rank of a run, so cross-rank timestamps (delayed
    /// arrival deadlines, crash tombstones) are comparable.
    origin: Instant,
    /// Elapsed seconds at the previous charge point.
    last_mark: f64,
    /// Seconds bracketed by compute charge points (`busy`).
    counting: f64,
    /// Seconds bracketed by exchange charge points (`idle`).
    exchange: f64,
    /// Seconds bracketed by I/O charge points (`io`).
    io: f64,
}

impl Wall {
    fn elapsed(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Attributes the time since the previous charge point to `category`;
    /// returns the bracket's seconds.
    fn attribute(&mut self, category: Category) -> f64 {
        let now = self.elapsed();
        let bracket = (now - self.last_mark).max(0.0);
        match category {
            Category::Compute => self.counting += bracket,
            Category::Exchange => self.exchange += bracket,
            Category::Io => self.io += bracket,
        }
        self.last_mark = now;
        bracket
    }
}

fn sleep(seconds: f64) {
    if seconds > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(seconds));
    }
}

impl Clock {
    /// The clock of `backend`. `origin` is the run's common wall epoch
    /// (unused by the virtual clock, which starts at 0.0).
    pub fn new(backend: ExecBackend, origin: Instant, slowdown: f64) -> Self {
        let kind = match backend {
            ExecBackend::Sim => Kind::Virtual {
                now: 0.0,
                busy: 0.0,
                idle: 0.0,
                io: 0.0,
            },
            ExecBackend::Native => Kind::Wall(Wall {
                origin,
                last_mark: 0.0,
                counting: 0.0,
                exchange: 0.0,
                io: 0.0,
            }),
        };
        Clock { slowdown, kind }
    }

    /// The backend this clock was chosen by.
    pub fn backend(&self) -> ExecBackend {
        match self.kind {
            Kind::Virtual { .. } => ExecBackend::Sim,
            Kind::Wall(_) => ExecBackend::Native,
        }
    }

    /// Current time: virtual seconds, or wall seconds since the run's
    /// origin.
    pub fn now(&self) -> f64 {
        match &self.kind {
            Kind::Virtual { now, .. } => *now,
            Kind::Wall(w) => w.elapsed(),
        }
    }

    /// One charge point: `seconds` of `category` work just happened.
    /// Compute is stretched by the rank's slowdown (a slow rank is a slow
    /// CPU, not a slow disk or link) — multiplied on the virtual clock,
    /// slept out on the wall one, where a slowdown-`s` rank sleeps `(s−1)×`
    /// the measured bracket so its passes really take `s×` as long.
    pub fn charge(&mut self, category: Category, seconds: f64) {
        match &mut self.kind {
            Kind::Virtual { now, busy, io, .. } => {
                let seconds = match category {
                    Category::Compute => {
                        let seconds = seconds * self.slowdown;
                        *busy += seconds;
                        seconds
                    }
                    Category::Io => {
                        *io += seconds;
                        seconds
                    }
                    Category::Exchange => seconds,
                };
                *now += seconds;
            }
            Kind::Wall(w) => {
                let bracket = w.attribute(category);
                if category == Category::Compute && self.slowdown > 1.0 {
                    let pad = bracket * (self.slowdown - 1.0);
                    if pad > 0.0 {
                        sleep(pad);
                        w.attribute(category);
                    }
                }
            }
        }
    }

    /// Blocks on a peer until `t` (message causality, failure detection,
    /// an aborter's timestamp): the virtual clock jumps there and books
    /// the gap as idle, the wall clock sleeps out what remains and books
    /// the bracket as exchange.
    pub fn wait_until(&mut self, t: f64) {
        match &mut self.kind {
            Kind::Virtual { now, idle, .. } => {
                if t > *now {
                    *idle += t - *now;
                    *now = t;
                }
            }
            Kind::Wall(w) => {
                w.attribute(Category::Exchange);
                let waited = (t - w.last_mark).max(0.0);
                if waited > 0.0 {
                    sleep(waited);
                    w.attribute(Category::Exchange);
                }
            }
        }
    }

    /// Synchronizes with this rank's own link occupancy ending at `t` (a
    /// pending send's completion). Not idle time: the interface is busy.
    /// The wall clock never models occupancy, so nothing to wait for.
    pub fn occupy_until(&mut self, t: f64) {
        if let Kind::Virtual { now, .. } = &mut self.kind {
            if t > *now {
                *now = t;
            }
        }
    }

    /// One lost transmission attempt: the wasted copy's full postal cost
    /// `lost_copy` plus the ack-timeout `timer`, charged to the virtual
    /// clock; on the wall clock the copy cost whatever it really cost and
    /// the timer is slept out.
    pub fn backoff(&mut self, lost_copy: f64, timer: f64) {
        match &mut self.kind {
            Kind::Virtual { now, .. } => *now += lost_copy + timer,
            Kind::Wall(_) => sleep(timer),
        }
    }

    /// Prices the copy of a `bytes`-long message that gets through, over
    /// `hops` links, held back by an injected `extra_delay` (0.0 for
    /// none). Returns `(completion, arrival)`: when the sender's link is
    /// free again, and the earliest time the receiver may complete the
    /// receive. The wall clock charges
    /// nothing — the message travels at channel speed — and its `arrival`
    /// is 0.0 unless an injected delay sets a real deadline.
    pub fn send(
        &mut self,
        m: &MachineProfile,
        bytes: usize,
        hops: usize,
        extra_delay: f64,
    ) -> (f64, f64) {
        match &mut self.kind {
            Kind::Virtual { now, .. } => {
                // Sender CPU overhead: message setup costs host cycles even
                // for non-blocking sends (LogP's `o`); it can never be
                // overlapped.
                *now += m.t_s;
                let issue = *now;
                // Sender-side link occupancy: bytes on the wire.
                let completion = issue + bytes as f64 * m.t_w;
                // In flight: per-hop routing latency, plus per-hop bandwidth
                // re-serialization on (partially) store-and-forward networks.
                let mut arrival = completion
                    + hops as f64 * m.t_hop
                    + hops.saturating_sub(1) as f64 * bytes as f64 * m.t_w * m.store_forward;
                if extra_delay > 0.0 {
                    arrival += extra_delay;
                }
                (completion, arrival)
            }
            Kind::Wall(w) => {
                w.attribute(Category::Exchange);
                let now = w.last_mark;
                let deadline = if extra_delay > 0.0 {
                    now + extra_delay
                } else {
                    0.0
                };
                (now, deadline)
            }
        }
    }

    /// Whether the clock has reached `t` (a scheduled crash). The virtual
    /// clock is clamped back to exactly `t`, so the crash timestamp does
    /// not depend on which charge crossed it.
    pub fn reached(&mut self, t: f64) -> bool {
        match &mut self.kind {
            Kind::Virtual { now, .. } => {
                let due = *now >= t;
                if due {
                    *now = t;
                }
                due
            }
            Kind::Wall(w) => w.elapsed() >= t,
        }
    }

    /// How long a blocked thread may sleep before `t` comes due on its
    /// own. `None` on the virtual clock, where time stands still while the
    /// thread blocks.
    pub fn real_time_until(&self, t: f64) -> Option<Duration> {
        match &self.kind {
            Kind::Virtual { .. } => None,
            Kind::Wall(w) => Some(Duration::from_secs_f64((t - w.elapsed()).max(0.0))),
        }
    }

    /// Fills the time fields of `stats`: the virtual buckets, or the wall
    /// brackets under their sim names (`busy` = counting, `idle` =
    /// exchange).
    pub fn times(&self, stats: &mut RankStats) {
        let t = match &self.kind {
            Kind::Virtual {
                now,
                busy,
                idle,
                io,
            } => (*now, *busy, *idle, *io),
            Kind::Wall(w) => (w.elapsed(), w.counting, w.exchange, w.io),
        };
        (stats.clock, stats.busy, stats.idle, stats.io) = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_charges_bracket_elapsed_time() {
        let mut c = Clock::new(ExecBackend::Native, Instant::now(), 1.0);
        std::thread::sleep(Duration::from_millis(5));
        c.charge(Category::Compute, 0.0);
        std::thread::sleep(Duration::from_millis(5));
        c.charge(Category::Exchange, 0.0);
        let mut stats = RankStats::default();
        c.times(&mut stats);
        assert!(stats.busy >= 4e-3, "counting bracket lost: {stats:?}");
        assert!(stats.idle >= 4e-3, "exchange bracket lost: {stats:?}");
        assert!(stats.clock >= stats.busy + stats.idle + stats.io - 1e-9);
    }
}
