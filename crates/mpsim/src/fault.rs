//! Deterministic fault plans: seed-reproducible message loss and delay,
//! per-rank slowdown (stragglers), and rank crashes.
//!
//! A [`FaultPlan`] is pure data. Every fault decision the simulator makes
//! is a deterministic function of `(plan seed, sender, receiver, per-link
//! message sequence number, attempt)` — never of host scheduling — so the
//! same plan on the same workload reproduces bit-identical virtual clocks
//! and fault counters on every run.
//!
//! Plans can be built programmatically or loaded from a small line-based
//! text file (no external parser dependencies):
//!
//! ```text
//! # straggler + crash scenario
//! seed = 42
//! drop_rate = 0.05
//! rto = 0.0001
//! detect_timeout = 0.001
//! slowdown 3 = 2.0
//! crash 5 = time:0.004
//! crash 2 = pass:3
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// When a rank crashes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPoint {
    /// Crash the first time the rank's virtual clock reaches this time.
    AtTime(f64),
    /// Crash when the rank enters this mining pass (1-based, as reported
    /// to [`crate::Comm::enter_pass`]).
    AtPass(usize),
}

/// A deterministic, seed-reproducible fault scenario.
///
/// The plan is shared read-only by every rank of a simulation; see the
/// module docs for the determinism contract and the text format.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every per-message fault decision.
    pub seed: u64,
    /// Probability that any single transmission attempt of a data message
    /// is lost (triggering ack-timeout + retransmit at the sender).
    pub drop_rate: f64,
    /// Probability that a delivered message suffers an extra in-flight
    /// delay of [`FaultPlan::delay`] seconds.
    pub delay_rate: f64,
    /// Extra in-flight latency (seconds) applied to delayed messages.
    pub delay: f64,
    /// Base retransmission timeout (seconds). Attempt `a` of a message
    /// waits `rto · 2^a` before retransmitting (exponential backoff).
    pub rto: f64,
    /// Virtual time a rank spends concluding that a peer is dead after
    /// its tombstone arrives (the simulated failure-detector timeout).
    pub detect_timeout: f64,
    slowdowns: BTreeMap<usize, f64>,
    crashes: BTreeMap<usize, CrashPoint>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay: 0.0,
            rto: 1e-4,
            detect_timeout: 1e-3,
            slowdowns: BTreeMap::new(),
            crashes: BTreeMap::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder seed).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the decision seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-attempt message loss probability.
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the probability and size of extra in-flight delays.
    pub fn delays(mut self, rate: f64, seconds: f64) -> Self {
        self.delay_rate = rate;
        self.delay = seconds;
        self
    }

    /// Sets the base retransmission timeout.
    pub fn rto(mut self, seconds: f64) -> Self {
        self.rto = seconds;
        self
    }

    /// Sets the failure-detector timeout.
    pub fn detect_timeout(mut self, seconds: f64) -> Self {
        self.detect_timeout = seconds;
        self
    }

    /// Makes `rank` a straggler: all its compute charges are multiplied
    /// by `factor` (in [1, 10^6]).
    ///
    /// The map recorded here is pure scenario data (format, label,
    /// validation); *applying* it is the per-rank speed path's job — the
    /// runtime folds plan slowdowns and [`crate::ClusterProfile`] speeds
    /// into one combined multiplier per rank, so a straggler is just a
    /// degenerate heterogeneous cluster.
    pub fn slowdown(mut self, rank: usize, factor: f64) -> Self {
        self.slowdowns.insert(rank, factor);
        self
    }

    /// Schedules `rank` to crash at the given point.
    pub fn crash(mut self, rank: usize, point: CrashPoint) -> Self {
        self.crashes.insert(rank, point);
        self
    }

    /// The compute slowdown factor of `rank` (1.0 when not a straggler).
    pub(crate) fn slowdown_of(&self, rank: usize) -> f64 {
        self.slowdowns.get(&rank).copied().unwrap_or(1.0)
    }

    /// The scheduled crash of `rank`, if any.
    pub(crate) fn crash_of(&self, rank: usize) -> Option<CrashPoint> {
        self.crashes.get(&rank).copied()
    }

    /// Whether the plan crashes any rank at all. Crash-free plans (drops,
    /// delays, stragglers) are transparent to algorithms: no recovery
    /// protocol runs.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// The ranks scheduled to crash, ascending.
    pub fn crashed_ranks(&self) -> Vec<usize> {
        self.crashes.keys().copied().collect()
    }

    /// A compact deterministic descriptor of the plan, used as the
    /// `fault_plan` metric label — e.g.
    /// `"seed13,drop0.05,slow2x1.5,crash5@pass3"`. The empty plan labels
    /// as `"seed<seed>"`; runs without any plan use the literal `"none"`
    /// (chosen by the caller, not here).
    pub fn label(&self) -> String {
        let mut parts = vec![format!("seed{}", self.seed)];
        if self.drop_rate > 0.0 {
            parts.push(format!("drop{}", self.drop_rate));
        }
        if self.delay_rate > 0.0 {
            parts.push(format!("delay{}x{}", self.delay_rate, self.delay));
        }
        for (rank, factor) in &self.slowdowns {
            parts.push(format!("slow{rank}x{factor}"));
        }
        for (rank, point) in &self.crashes {
            match point {
                CrashPoint::AtPass(pass) => parts.push(format!("crash{rank}@pass{pass}")),
                CrashPoint::AtTime(t) => parts.push(format!("crash{rank}@t{t}")),
            }
        }
        parts.join(",")
    }

    /// Checks the plan's parameters; returns a human-readable complaint
    /// for out-of-range values.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..=0.95).contains(&self.drop_rate) {
            return Err(format!(
                "drop_rate must be in [0, 0.95], got {}",
                self.drop_rate
            ));
        }
        if !(0.0..=1.0).contains(&self.delay_rate) {
            return Err(format!(
                "delay_rate must be in [0, 1], got {}",
                self.delay_rate
            ));
        }
        let timers = [
            ("delay", self.delay),
            ("rto", self.rto),
            ("detect_timeout", self.detect_timeout),
        ];
        if let Some((name, seconds)) = timers
            .into_iter()
            .find(|&(_, s)| !(s.is_finite() && s <= MAX_SECONDS))
        {
            return Err(format!(
                "{name} must be finite and at most {MAX_SECONDS} seconds, got {seconds}"
            ));
        }
        if self.delay < 0.0 {
            return Err(format!("delay must be non-negative, got {}", self.delay));
        }
        if self.drop_rate > 0.0 && self.rto <= 0.0 {
            return Err(format!(
                "rto must be positive when drop_rate > 0, got {}",
                self.rto
            ));
        }
        if self.detect_timeout < 0.0 {
            return Err(format!(
                "detect_timeout must be non-negative, got {}",
                self.detect_timeout
            ));
        }
        for (&rank, &factor) in &self.slowdowns {
            if !(1.0..=MAX_SLOWDOWN).contains(&factor) {
                return Err(format!(
                    "slowdown factor for rank {rank} must be in [1, {MAX_SLOWDOWN}], got {factor}"
                ));
            }
        }
        for (&rank, &point) in &self.crashes {
            match point {
                CrashPoint::AtTime(t) if !(0.0..=MAX_SECONDS).contains(&t) => {
                    return Err(format!(
                        "crash time for rank {rank} must be in [0, {MAX_SECONDS}] seconds, got {t}"
                    ));
                }
                CrashPoint::AtPass(0) => {
                    return Err(format!("crash pass for rank {rank} must be >= 1"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Checks the plan, and then against a concrete rank count: every
    /// crashed or slowed rank must exist in a `procs`-rank run. The plan's
    /// own checks are P-agnostic (a plan file is reusable across run
    /// sizes); this is the check a runner applies once P is known, so
    /// `crash 99 = pass:2` on a P=8 run errors instead of being silently
    /// inert.
    pub fn validate_for_procs(&self, procs: usize) -> Result<(), String> {
        self.validate()?;
        if let Some(&rank) = self.crashes.keys().find(|&&r| r >= procs) {
            return Err(format!(
                "crash rank {rank} is out of range for {procs} ranks (valid: 0..={})",
                procs.saturating_sub(1)
            ));
        }
        if let Some(&rank) = self.slowdowns.keys().find(|&&r| r >= procs) {
            return Err(format!(
                "slowdown rank {rank} is out of range for {procs} ranks (valid: 0..={})",
                procs.saturating_sub(1)
            ));
        }
        Ok(())
    }

    /// A deterministic uniform variate in `[0, 1)` for fault decision
    /// `decision` of attempt `attempt` of the `seq`-th message on the
    /// `src → dst` link.
    pub(crate) fn u01(&self, decision: u64, src: usize, dst: usize, seq: u64, attempt: u32) -> f64 {
        let mut x = self.seed;
        for word in [decision, src as u64, dst as u64, seq, u64::from(attempt)] {
            x = splitmix64(x ^ word.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        // 53 high bits → f64 in [0, 1).
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Loads a plan from the text format (see module docs).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("cannot read fault plan {}: {e}", path.as_ref().display()))?;
        text.parse()
    }
}

/// The largest timer (`delay`, `rto`, `detect_timeout`) or crash time a
/// plan may set, in seconds (about 11.6 days).
///
/// The native clock sleeps these out, a retransmit after backing off up to
/// 2^16 times the `rto`, and `Duration` holds at most 2^64 seconds: under
/// this bound every sleep fits, and every virtual time stays finite.
pub(crate) const MAX_SECONDS: f64 = 1e6;

/// The largest straggler slowdown a plan may set, and the inverse of the
/// smallest speed a [`crate::ClusterProfile`] may set. A rank's combined
/// factor is then at most 10^12, and the native clock's sleep of `factor`
/// times a measured bracket fits a `Duration` for any bracket under 200
/// days.
pub(crate) const MAX_SLOWDOWN: f64 = 1e6;

/// Decision-kind discriminators mixed into [`FaultPlan::u01`].
pub(crate) const DECISION_DROP: u64 = 1;
pub(crate) const DECISION_DELAY: u64 = 2;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed = {}", self.seed)?;
        writeln!(f, "drop_rate = {}", self.drop_rate)?;
        writeln!(f, "delay_rate = {}", self.delay_rate)?;
        writeln!(f, "delay = {}", self.delay)?;
        writeln!(f, "rto = {}", self.rto)?;
        writeln!(f, "detect_timeout = {}", self.detect_timeout)?;
        for (rank, factor) in &self.slowdowns {
            writeln!(f, "slowdown {rank} = {factor}")?;
        }
        for (rank, point) in &self.crashes {
            match point {
                CrashPoint::AtTime(t) => writeln!(f, "crash {rank} = time:{t}")?,
                CrashPoint::AtPass(k) => writeln!(f, "crash {rank} = pass:{k}")?,
            }
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        for entry in crate::scenario::entries(s) {
            let entry = entry?;
            let rhs = entry.value;
            let bad = |what: &str| entry.invalid(what);
            match (entry.key, entry.arg) {
                ("seed", None) => plan.seed = rhs.parse().map_err(|_| bad("seed"))?,
                ("drop_rate", None) => plan.drop_rate = rhs.parse().map_err(|_| bad("rate"))?,
                ("delay_rate", None) => plan.delay_rate = rhs.parse().map_err(|_| bad("rate"))?,
                ("delay", None) => plan.delay = rhs.parse().map_err(|_| bad("delay"))?,
                ("rto", None) => plan.rto = rhs.parse().map_err(|_| bad("rto"))?,
                ("detect_timeout", None) => {
                    plan.detect_timeout = rhs.parse().map_err(|_| bad("timeout"))?
                }
                ("slowdown", Some(_)) => {
                    let rank = entry.rank()?;
                    plan.slowdowns
                        .insert(rank, rhs.parse().map_err(|_| bad("factor"))?);
                }
                ("crash", Some(_)) => {
                    let rank = entry.rank()?;
                    let point = if let Some(t) = rhs.strip_prefix("time:") {
                        CrashPoint::AtTime(t.trim().parse().map_err(|_| bad("crash time"))?)
                    } else if let Some(k) = rhs.strip_prefix("pass:") {
                        CrashPoint::AtPass(k.trim().parse().map_err(|_| bad("crash pass"))?)
                    } else {
                        return Err(
                            entry.error("crash point must be `time:<seconds>` or `pass:<k>`")
                        );
                    };
                    plan.crashes.insert(rank, point);
                }
                _ => return Err(entry.unknown_key()),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Satellite: every generated plan's Display output reparses to an
        // equal plan (Display ↔ FromStr are exact inverses on valid
        // plans). Stragglers and crashes arrive as packed integers (the
        // vendored proptest has no tuple strategies): rank in the low
        // bits, factor/point above.
        #[test]
        fn display_fromstr_round_trips(
            seed in 0u64..u64::MAX,
            drop_pct in 0u64..96,   // drop_rate within [0, 0.95]
            delay_pct in 0u64..101,
            delay_us in 0u64..1_000,
            rto_us in 1u64..1_000,  // positive: drop_rate may be > 0
            detect_us in 0u64..10_000,
            slow_packed in prop::collection::vec(0u64..16 * 40, 0..4),
            crash_packed in prop::collection::vec(0u64..16 * 2 * 8, 0..4),
        ) {
            let mut plan = FaultPlan::new()
                .seed(seed)
                .drop_rate(drop_pct as f64 / 100.0)
                .delays(delay_pct as f64 / 100.0, delay_us as f64 * 1e-6)
                .rto(rto_us as f64 * 1e-6)
                .detect_timeout(detect_us as f64 * 1e-6);
            for &x in &slow_packed {
                // factor in [1.0, 4.9] by tenths, rank in 0..16.
                plan = plan.slowdown((x % 16) as usize, 1.0 + (x / 16) as f64 / 10.0);
            }
            for &x in &crash_packed {
                let (rank, rest) = ((x % 16) as usize, x / 16);
                let (kind, val) = (rest % 2, rest / 2 + 1);
                let point = if kind == 0 {
                    CrashPoint::AtPass(val as usize)
                } else {
                    CrashPoint::AtTime(val as f64 * 1e-4)
                };
                plan = plan.crash(rank, point);
            }
            prop_assert!(plan.validate().is_ok(), "generator made invalid plan: {plan}");
            let reparsed: FaultPlan = plan.to_string().parse().expect("reparse");
            prop_assert_eq!(reparsed, plan);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        // Any text is a plan or an error, never a panic, and a plan that
        // parses prints as text that parses back to it.
        #[test]
        fn any_text_parses_or_errs_and_ok_round_trips(text in crate::scenario::tests::fuzz_text()) {
            if let Ok(plan) = text.parse::<FaultPlan>() {
                prop_assert!(plan.validate().is_ok(), "{text:?}");
                prop_assert_eq!(plan.to_string().parse::<FaultPlan>(), Ok(plan), "{:?}", text);
            }
        }
    }

    #[test]
    fn non_finite_timers_are_rejected() {
        for timer in ["delay", "rto", "detect_timeout"] {
            for value in ["nan", "inf", "-inf"] {
                let text = format!("drop_rate = 0.3\n{timer} = {value}\n");
                let err = text.parse::<FaultPlan>().expect_err(&text);
                assert!(err.contains(timer), "{text:?}: {err}");
            }
        }
        assert!(FaultPlan::new().rto(f64::NAN).validate().is_err());
    }

    #[test]
    fn text_format_round_trips() {
        let plan = FaultPlan::new()
            .seed(42)
            .drop_rate(0.05)
            .delays(0.1, 0.002)
            .rto(1e-4)
            .detect_timeout(1e-3)
            .slowdown(3, 2.0)
            .crash(5, CrashPoint::AtTime(0.004))
            .crash(2, CrashPoint::AtPass(3));
        let text = plan.to_string();
        let parsed: FaultPlan = text.parse().expect("round trip");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let plan: FaultPlan = "# a comment\n\nseed = 7 # trailing\ndrop_rate = 0.1\n"
            .parse()
            .expect("parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop_rate, 0.1);
    }

    #[test]
    fn duplicate_keys_last_one_wins() {
        let plan: FaultPlan = "seed = 1\nseed = 2\nslowdown 3 = 2.0\nslowdown 3 = 4.0\n\
                               crash 1 = pass:2\ncrash 1 = time:0.5\n"
            .parse()
            .expect("parses");
        assert_eq!(plan.seed, 2);
        assert_eq!(plan.slowdown_of(3), 4.0);
        assert_eq!(plan.crash_of(1), Some(CrashPoint::AtTime(0.5)));
        assert_eq!(plan.crashed_ranks(), vec![1]);
    }

    #[test]
    fn whitespace_only_and_comment_only_input_is_a_default_plan() {
        let plan: FaultPlan = "\n   \n# nothing here\n\t\n".parse().expect("parses");
        assert_eq!(plan, FaultPlan::default());
        assert_eq!(
            "".parse::<FaultPlan>().expect("empty"),
            FaultPlan::default()
        );
    }

    #[test]
    fn validate_for_procs_flags_out_of_range_ranks() {
        let plan = FaultPlan::new().crash(99, CrashPoint::AtPass(2));
        assert!(plan.validate().is_ok(), "P-agnostic validate must pass");
        let err = plan.validate_for_procs(8).unwrap_err();
        assert!(err.contains("99") && err.contains("8 ranks"), "{err}");

        let plan = FaultPlan::new().slowdown(8, 2.0);
        let err = plan.validate_for_procs(8).unwrap_err();
        assert!(
            err.contains("slowdown rank 8") && err.contains("0..=7"),
            "{err}"
        );
        assert!(plan.validate_for_procs(9).is_ok());

        // In-range plans pass, and parameter errors still surface.
        assert!(FaultPlan::new()
            .crash(7, CrashPoint::AtPass(2))
            .slowdown(0, 3.0)
            .validate_for_procs(8)
            .is_ok());
        assert!(FaultPlan::new()
            .drop_rate(2.0)
            .validate_for_procs(8)
            .is_err());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!("drop_rate = 1.5".parse::<FaultPlan>().is_err());
        assert!("slowdown 1 = 0.5".parse::<FaultPlan>().is_err());
        assert!("crash 1 = noon".parse::<FaultPlan>().is_err());
        assert!("frobnicate = 1".parse::<FaultPlan>().is_err());
        assert!("drop_rate = 0.1\nrto = 0".parse::<FaultPlan>().is_err());
        assert!("crash 1 = pass:0".parse::<FaultPlan>().is_err());
        // Values the native clock could not sleep out.
        for text in [
            "slowdown 1 = 1e308",
            "drop_rate = 0.5\nrto = 1e300",
            "delay_rate = 0.5\ndelay = 1e300",
            "crash 1 = time:inf",
            "crash 1 = pass:2\ndetect_timeout = 1e300",
        ] {
            let err = text.parse::<FaultPlan>().expect_err(text);
            assert!(err.contains(" must be ") && err.contains(", got "), "{err}");
        }
        let edge = "slowdown 1 = 1e6\nrto = 1e6\ndelay = 1e6\ndetect_timeout = 1e6\n\
                    crash 1 = time:1e6";
        assert!(edge.parse::<FaultPlan>().is_ok());
    }

    #[test]
    fn u01_is_deterministic_and_uniform_ish() {
        let plan = FaultPlan::new().seed(9);
        let a = plan.u01(DECISION_DROP, 0, 1, 7, 0);
        let b = plan.u01(DECISION_DROP, 0, 1, 7, 0);
        assert_eq!(a.to_bits(), b.to_bits());
        // Different coordinates decorrelate.
        let c = plan.u01(DECISION_DROP, 0, 1, 7, 1);
        assert_ne!(a.to_bits(), c.to_bits());
        // Crude uniformity: mean of many draws near 0.5.
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|i| plan.u01(DECISION_DROP, 1, 2, i, 0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn defaults_are_fault_free() {
        let plan = FaultPlan::default();
        // The label names every injected fault; the default's names none.
        assert_eq!(plan.label(), "seed0");
        assert!(!plan.has_crashes());
        assert_eq!(plan.slowdown_of(3), 1.0);
        assert!(plan.validate().is_ok());
    }
}
