//! Machine profiles: the per-operation constants of the cost model.
//!
//! Communication constants come from the paper's Section V measurements
//! (T3E: 303 MB/s effective bandwidth for 16 KB messages, 16 µs effective
//! startup; SP2: 110 MB/s peak HPS). Computation constants are calibrated
//! to plausible per-operation costs on the respective CPUs (600 MHz Alpha
//! EV5 vs 66.7 MHz Power2); only their *ratios* to the communication
//! constants matter for the shape of the curves.
//!
//! A [`ClusterProfile`] lifts the single profile to a whole (possibly
//! heterogeneous) machine: a base [`MachineProfile`] plus per-rank
//! relative `speed` factors, loadable from a small line-based text file
//! in the same spirit as [`crate::FaultPlan`]'s format:
//!
//! ```text
//! # 2 slow ranks on a T3E
//! machine = t3e
//! speed 3 = 0.5    # rank 3 runs at half speed
//! speed 7 = 0.25
//! ```

use crate::fault::MAX_SLOWDOWN;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Per-operation time constants (seconds) of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Human-readable name for reports.
    pub name: String,
    /// Message startup latency `t_s`.
    pub t_s: f64,
    /// Per-byte link time `t_w` (1 / bandwidth).
    pub t_w: f64,
    /// Additional per-hop latency on multi-hop routes.
    pub t_hop: f64,
    /// Per-hop bandwidth serialization factor in [0, 1]: 0 models
    /// cut-through (wormhole) routing where distance costs only latency;
    /// 1 models store-and-forward where every hop re-pays the full
    /// transfer time. Realistic contention on loaded networks sits in
    /// between.
    pub store_forward: f64,
    /// Hash-tree descent cost per traversal step (`t_travers`).
    pub t_travers: f64,
    /// Per-candidate comparison cost at a leaf.
    pub t_check: f64,
    /// Fixed overhead per distinct leaf visit.
    pub t_leaf: f64,
    /// Per-candidate hash-tree insertion cost (tree construction).
    pub t_insert: f64,
    /// Per-candidate `apriori_gen` cost (join + prune, charged to every
    /// processor regardless of algorithm, as each regenerates the
    /// candidates in the model; the host generates once per run).
    pub t_gen: f64,
    /// Per-transaction bookkeeping cost in a database scan.
    pub t_trans: f64,
    /// Per-`u64`-word cost of a bitmap AND/popcount step — the vertical
    /// counting backend's dominant term. Roughly one ALU op plus the
    /// streaming memory access; the horizontal backends never accrue it.
    pub t_word: f64,
    /// Per-byte cost of (re-)reading the database from disk; 0 when the
    /// database is memory-resident (the paper's T3E setup simulates I/O).
    pub io_per_byte: f64,
}

impl MachineProfile {
    /// The paper's Cray T3E: 600 MHz Alpha EV5 nodes, 3-D torus,
    /// 303 MB/s effective bandwidth, 16 µs startup, memory-resident data.
    pub fn cray_t3e() -> Self {
        MachineProfile {
            name: "Cray T3E".to_owned(),
            t_s: 16e-6,
            t_w: 1.0 / 303e6,
            t_hop: 0.1e-6,
            store_forward: 0.05,
            t_travers: 60e-9,
            t_check: 80e-9,
            t_leaf: 120e-9,
            t_insert: 1.2e-6,
            t_gen: 1.2e-6,
            t_trans: 200e-9,
            t_word: 8e-9,
            io_per_byte: 0.0,
        }
    }

    /// The paper's IBM SP2: 66.7 MHz Power2 nodes (≈9× slower per
    /// operation), HPS switch at ~35 MB/s effective, disk-resident data.
    pub fn ibm_sp2() -> Self {
        MachineProfile {
            name: "IBM SP2".to_owned(),
            t_s: 40e-6,
            t_w: 1.0 / 35e6,
            t_hop: 0.5e-6,
            store_forward: 0.0,
            t_travers: 540e-9,
            t_check: 720e-9,
            t_leaf: 1.1e-6,
            t_insert: 10.8e-6,
            t_gen: 10.8e-6,
            t_trans: 1.8e-6,
            t_word: 72e-9,
            io_per_byte: 1.0 / 20e6,
        }
    }

    /// A zero-latency, infinite-bandwidth machine: useful in tests to
    /// isolate computation costs (communication becomes free).
    pub fn ideal() -> Self {
        MachineProfile {
            name: "ideal".to_owned(),
            t_s: 0.0,
            t_w: 0.0,
            t_hop: 0.0,
            store_forward: 0.0,
            t_travers: 60e-9,
            t_check: 80e-9,
            t_leaf: 120e-9,
            t_insert: 1.2e-6,
            t_gen: 1.2e-6,
            t_trans: 200e-9,
            t_word: 8e-9,
            io_per_byte: 0.0,
        }
    }

    /// The preset profiles in CLI listing order.
    pub const PRESETS: [MachinePreset; 3] = [
        ("t3e", MachineProfile::cray_t3e),
        ("sp2", MachineProfile::ibm_sp2),
        ("ideal", MachineProfile::ideal),
    ];

    /// Looks up a preset profile by its short key (`t3e`, `sp2`,
    /// `ideal`), case-insensitively — the spelling the CLI's `--machine`
    /// flag and the [`ClusterProfile`] text format use.
    pub(crate) fn by_key(key: &str) -> Option<Self> {
        Self::PRESETS
            .iter()
            .find(|&&(k, _)| k.eq_ignore_ascii_case(key))
            .map(|&(_, make)| make())
    }

    /// The short key of this profile if it is one of the presets
    /// (matched by name), `None` for user-defined profiles.
    pub fn key(&self) -> Option<&'static str> {
        Self::PRESETS
            .iter()
            .find(|&&(_, make)| make().name == self.name)
            .map(|&(k, _)| k)
    }

    /// Virtual seconds one batch of candidate-counting work costs on this
    /// machine.
    ///
    /// The term order is load-bearing: it reproduces, addition for
    /// addition, the expression the hash-tree charging path has always
    /// used, so `f64` rounding — and therefore every virtual-time golden
    /// fingerprint — is bit-identical to the pre-seam code. The
    /// `intersection_words` term is appended **last** for the same
    /// reason: the horizontal backends report zero words, and adding a
    /// trailing `+ 0.0` to a non-negative sum leaves its bit pattern
    /// untouched, so the default-backend goldens survive the vertical
    /// backend's arrival unchanged.
    pub(crate) fn counting_time(&self, work: &CountingWork) -> f64 {
        work.inserts as f64 * self.t_insert
            + work.transactions as f64 * self.t_trans
            + work.traversal_steps as f64 * self.t_travers
            + work.node_visits as f64 * self.t_leaf
            + work.candidate_checks as f64 * self.t_check
            + work.intersection_words as f64 * self.t_word
    }
}

/// A preset entry: short key plus its profile constructor.
pub type MachinePreset = (&'static str, fn() -> MachineProfile);

/// A whole (possibly heterogeneous) machine: a base [`MachineProfile`]
/// shared by every rank plus per-rank relative **speed** factors.
///
/// A rank with speed `s` performs compute charges `1/s` times as fast as
/// the base profile: `speed 3 = 0.5` makes rank 3 take twice as long per
/// counting operation (communication and I/O constants are unaffected —
/// speed models a slower CPU, not a slower network or disk). The default
/// speed is 1.0, so a profile with no overrides is exactly the old
/// homogeneous machine — including bit-identical virtual clocks, because
/// the effective multiplier stays the literal `1.0` the charge path has
/// always applied.
///
/// Straggler `slowdown`s from a [`crate::FaultPlan`] ride the same
/// per-rank multiplier: the runtime combines `plan slowdown ÷ cluster
/// speed` into one factor per rank, so a fault-injected straggler is just
/// a degenerate heterogeneous cluster.
///
/// Like [`crate::FaultPlan`], a cluster is pure data with a line-based
/// text format (see the module docs) whose [`fmt::Display`] output and
/// [`FromStr`] parser are exact inverses for preset-based profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterProfile {
    base: MachineProfile,
    speeds: BTreeMap<usize, f64>,
}

impl Default for ClusterProfile {
    fn default() -> Self {
        ClusterProfile::uniform(MachineProfile::cray_t3e())
    }
}

impl ClusterProfile {
    /// A homogeneous cluster: every rank runs `base` at speed 1.0.
    pub fn uniform(base: MachineProfile) -> Self {
        ClusterProfile {
            base,
            speeds: BTreeMap::new(),
        }
    }

    /// Overrides the relative speed of `rank` (builder style). `factor`
    /// must be finite and at least 10^-6; values below 1.0 are slower
    /// than the base machine, above 1.0 faster.
    pub fn speed(mut self, rank: usize, factor: f64) -> Self {
        self.speeds.insert(rank, factor);
        self
    }

    /// The base profile shared by every rank: the per-rank speed is
    /// applied as a charge multiplier (the rank's slowdown), not baked
    /// into the constants, so reports can still name one machine.
    pub fn base(&self) -> &MachineProfile {
        &self.base
    }

    /// The compute-charge multiplier of `rank`: `1 / speed`. Exactly 1.0
    /// for non-overridden ranks, so homogeneous clusters charge through
    /// the same literal constant as before the cluster seam existed.
    pub(crate) fn slowdown_of(&self, rank: usize) -> f64 {
        match self.speeds.get(&rank) {
            Some(&s) => 1.0 / s,
            None => 1.0,
        }
    }

    /// Whether every rank runs at the base speed.
    pub fn is_uniform(&self) -> bool {
        self.speeds.is_empty()
    }

    /// A compact deterministic descriptor, e.g. `"t3e"` or
    /// `"t3e,speed3x0.5"` — the spelling experiment scenario labels use.
    pub fn label(&self) -> String {
        let mut parts = vec![self.base.key().unwrap_or("custom").to_owned()];
        for (rank, factor) in &self.speeds {
            parts.push(format!("speed{rank}x{factor}"));
        }
        parts.join(",")
    }

    /// Checks the profile's parameters; returns a human-readable
    /// complaint for out-of-range values.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (&rank, &factor) in &self.speeds {
            if !(factor.is_finite() && factor >= 1.0 / MAX_SLOWDOWN) {
                return Err(format!(
                    "speed factor for rank {rank} must be finite and >= {}, got {factor}",
                    1.0 / MAX_SLOWDOWN
                ));
            }
        }
        Ok(())
    }

    /// Checks the profile, and then against a concrete rank count: every
    /// overridden rank must exist in a `procs`-rank run. The profile's own
    /// checks are P-agnostic (a cluster file is reusable across run
    /// sizes); this is the check a runner applies once P is known.
    pub fn validate_for_procs(&self, procs: usize) -> Result<(), String> {
        self.validate()?;
        if let Some(&rank) = self.speeds.keys().find(|&&r| r >= procs) {
            return Err(format!(
                "speed rank {rank} is out of range for {procs} ranks (valid: 0..={})",
                procs.saturating_sub(1)
            ));
        }
        Ok(())
    }

    /// Loads a cluster profile from the text format (see module docs).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| {
            format!(
                "cannot read cluster profile {}: {e}",
                path.as_ref().display()
            )
        })?;
        text.parse()
    }
}

impl fmt::Display for ClusterProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "machine = {}", self.base.key().unwrap_or("t3e"))?;
        for (rank, factor) in &self.speeds {
            writeln!(f, "speed {rank} = {factor}")?;
        }
        Ok(())
    }
}

impl FromStr for ClusterProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut cluster = ClusterProfile::default();
        for entry in crate::scenario::entries(s) {
            let entry = entry?;
            match (entry.key, entry.arg) {
                ("machine", None) => {
                    cluster.base = MachineProfile::by_key(entry.value).ok_or_else(|| {
                        let valid: Vec<&str> =
                            MachineProfile::PRESETS.iter().map(|&(k, _)| k).collect();
                        entry.error(format_args!(
                            "unknown machine `{}` (valid: {})",
                            entry.value,
                            valid.join(", ")
                        ))
                    })?;
                }
                ("speed", Some(_)) => {
                    let rank = entry.rank()?;
                    let factor = entry.value.parse().map_err(|_| entry.invalid("factor"))?;
                    cluster.speeds.insert(rank, factor);
                }
                _ => return Err(entry.unknown_key()),
            }
        }
        cluster.validate()?;
        Ok(cluster)
    }
}

/// One batch of candidate-counting work to charge to the virtual clock.
///
/// The simulator does not know (or care) which counting structure
/// produced these numbers — a hash tree's hash descents and a trie's
/// child-list matches both arrive as `traversal_steps`. The mining layer
/// converts its structure-specific stats into this ledger and calls
/// [`Comm::charge_counting`](crate::Comm::charge_counting).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingWork {
    /// Candidate insertions (construction work, `t_insert` units).
    pub inserts: u64,
    /// Transactions processed (`t_trans` units).
    pub transactions: u64,
    /// Descents into the structure (`t_travers` units).
    pub traversal_steps: u64,
    /// Distinct terminal-node visits (`t_leaf` units).
    pub node_visits: u64,
    /// Candidate-vs-transaction comparisons (`t_check` units).
    pub candidate_checks: u64,
    /// Bitmap words touched by AND/popcount intersections (`t_word`
    /// units) — only the vertical backend emits these.
    pub intersection_words: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3e_matches_paper_figures() {
        let m = MachineProfile::cray_t3e();
        assert!((1.0 / m.t_w / 1e6 - 303.0).abs() < 1.0, "303 MB/s");
        assert!((m.t_s - 16e-6).abs() < 1e-12);
        assert_eq!(m.io_per_byte, 0.0, "T3E runs from memory buffers");
    }

    #[test]
    fn sp2_is_slower_everywhere() {
        let t3e = MachineProfile::cray_t3e();
        let sp2 = MachineProfile::ibm_sp2();
        assert!(sp2.t_w > t3e.t_w);
        assert!(sp2.t_travers > t3e.t_travers);
        assert!(sp2.io_per_byte > 0.0, "SP2 database is disk-resident");
    }

    #[test]
    fn ideal_communication_is_free() {
        let m = MachineProfile::ideal();
        assert_eq!(m.t_s + m.t_w + m.t_hop, 0.0);
        assert!(m.t_travers > 0.0, "compute still costs");
    }

    #[test]
    fn counting_time_matches_handwritten_expression() {
        let m = MachineProfile::cray_t3e();
        let w = CountingWork {
            inserts: 3,
            transactions: 41,
            traversal_steps: 1009,
            node_visits: 127,
            candidate_checks: 511,
            intersection_words: 8191,
        };
        // Exactly the term order the charging path has always used —
        // compared through bits because that order is the contract.
        let by_hand = w.inserts as f64 * m.t_insert
            + w.transactions as f64 * m.t_trans
            + w.traversal_steps as f64 * m.t_travers
            + w.node_visits as f64 * m.t_leaf
            + w.candidate_checks as f64 * m.t_check
            + w.intersection_words as f64 * m.t_word;
        assert_eq!(m.counting_time(&w).to_bits(), by_hand.to_bits());
    }

    /// Horizontal backends report zero intersection words; the appended
    /// `+ 0.0` must leave the historical expression's bits untouched, or
    /// every golden fingerprint would shift.
    #[test]
    fn zero_intersection_words_preserve_historical_bits() {
        for m in [
            MachineProfile::cray_t3e(),
            MachineProfile::ibm_sp2(),
            MachineProfile::ideal(),
        ] {
            let w = CountingWork {
                inserts: 3,
                transactions: 41,
                traversal_steps: 1009,
                node_visits: 127,
                candidate_checks: 511,
                intersection_words: 0,
            };
            let historical = w.inserts as f64 * m.t_insert
                + w.transactions as f64 * m.t_trans
                + w.traversal_steps as f64 * m.t_travers
                + w.node_visits as f64 * m.t_leaf
                + w.candidate_checks as f64 * m.t_check;
            assert_eq!(
                m.counting_time(&w).to_bits(),
                historical.to_bits(),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn counting_time_of_nothing_is_zero() {
        let m = MachineProfile::ibm_sp2();
        assert_eq!(m.counting_time(&CountingWork::default()), 0.0);
    }

    // --- cluster profiles ------------------------------------------------

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Satellite: every generated cluster's Display output reparses to
        // an equal cluster (Display ↔ FromStr are exact inverses on valid
        // preset-based profiles), mirroring the fault-plan round-trip.
        // Speed overrides arrive as packed integers (the vendored
        // proptest has no tuple strategies): rank in the low bits, factor
        // above.
        #[test]
        fn cluster_display_fromstr_round_trips(
            base_idx in 0usize..3,
            speed_packed in prop::collection::vec(0u64..32 * 40, 0..5),
        ) {
            let base = MachineProfile::PRESETS[base_idx].1();
            let mut cluster = ClusterProfile::uniform(base);
            for &x in &speed_packed {
                // rank in 0..32, factor in {0.1, 0.2, …, 4.0} by tenths.
                cluster = cluster.speed((x % 32) as usize, (x / 32 + 1) as f64 / 10.0);
            }
            prop_assert!(cluster.validate().is_ok(), "generator made invalid cluster");
            let reparsed: ClusterProfile = cluster.to_string().parse().expect("reparse");
            prop_assert_eq!(reparsed, cluster);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        // Any text is a cluster or an error, never a panic, and a cluster
        // that parses prints as text that parses back to it.
        #[test]
        fn any_text_parses_or_errs_and_ok_round_trips(text in crate::scenario::tests::fuzz_text()) {
            if let Ok(cluster) = text.parse::<ClusterProfile>() {
                prop_assert!(cluster.validate().is_ok(), "{text:?}");
                let printed = cluster.to_string();
                prop_assert_eq!(printed.parse::<ClusterProfile>(), Ok(cluster), "{:?}", text);
            }
        }
    }

    #[test]
    fn cluster_text_format_round_trips() {
        let cluster = ClusterProfile::uniform(MachineProfile::ibm_sp2())
            .speed(3, 0.5)
            .speed(7, 0.25);
        let text = cluster.to_string();
        let parsed: ClusterProfile = text.parse().expect("round trip");
        assert_eq!(parsed, cluster);
        assert_eq!(cluster.label(), "sp2,speed3x0.5,speed7x0.25");
    }

    #[test]
    fn cluster_defaults_are_homogeneous() {
        let cluster = ClusterProfile::default();
        assert!(cluster.is_uniform());
        assert_eq!(cluster.base().name, "Cray T3E");
        // The multiplier of a non-overridden rank is the literal 1.0 —
        // the bit pattern the homogeneous charge path has always used.
        assert_eq!(cluster.slowdown_of(5).to_bits(), 1.0f64.to_bits());
        assert_eq!(cluster.label(), "t3e");
        assert!(cluster.validate_for_procs(1).is_ok());
    }

    #[test]
    fn cluster_speed_inverts_to_slowdown() {
        let cluster = ClusterProfile::default().speed(2, 0.5).speed(3, 4.0);
        assert_eq!(cluster.slowdown_of(2), 2.0);
        assert_eq!(cluster.slowdown_of(3), 0.25);
        assert_eq!(cluster.base().name, "Cray T3E");
        assert!(!cluster.is_uniform());
    }

    #[test]
    fn cluster_comments_and_blank_lines_are_ignored() {
        let cluster: ClusterProfile =
            "# hetero\n\nmachine = SP2 # case-insensitive\nspeed 1 = 0.5\n"
                .parse()
                .expect("parses");
        assert_eq!(cluster.base().name, "IBM SP2");
        assert_eq!(cluster.slowdown_of(1), 2.0);
        let empty: ClusterProfile = "\n  \n# nothing\n".parse().expect("parses");
        assert_eq!(empty, ClusterProfile::default());
    }

    #[test]
    fn invalid_clusters_are_rejected() {
        assert!("machine = cm5".parse::<ClusterProfile>().is_err());
        assert!("speed 1 = 0".parse::<ClusterProfile>().is_err());
        assert!("speed 1 = -2".parse::<ClusterProfile>().is_err());
        assert!("speed 1 = inf".parse::<ClusterProfile>().is_err());
        let err = "speed 1 = 1e-300".parse::<ClusterProfile>().unwrap_err();
        assert!(err.contains("must be finite and >= 0.000001, got"), "{err}");
        assert!("speed 1 = 1e-6".parse::<ClusterProfile>().is_ok());
        assert!("speed x = 1.0".parse::<ClusterProfile>().is_err());
        assert!("frobnicate = 1".parse::<ClusterProfile>().is_err());
        assert!("machine".parse::<ClusterProfile>().is_err());
        let err = "machine = cm5".parse::<ClusterProfile>().unwrap_err();
        assert!(err.contains("t3e, sp2, ideal"), "{err}");
    }

    #[test]
    fn cluster_validate_for_procs_flags_out_of_range_ranks() {
        let cluster = ClusterProfile::default().speed(8, 0.5);
        assert!(cluster.validate().is_ok(), "P-agnostic validate must pass");
        let err = cluster.validate_for_procs(8).unwrap_err();
        assert!(
            err.contains("speed rank 8") && err.contains("0..=7"),
            "{err}"
        );
        assert!(cluster.validate_for_procs(9).is_ok());
    }

    #[test]
    fn preset_keys_round_trip() {
        for (key, make) in MachineProfile::PRESETS {
            let m = make();
            assert_eq!(m.key(), Some(key), "{}", m.name);
            assert_eq!(MachineProfile::by_key(key), Some(make()));
            assert_eq!(MachineProfile::by_key(&key.to_uppercase()), Some(make()));
        }
        assert_eq!(MachineProfile::by_key("cm5"), None);
        let custom = MachineProfile {
            name: "my box".to_owned(),
            ..MachineProfile::ideal()
        };
        assert_eq!(custom.key(), None);
    }
}
