//! The execution-backend selector and the native backend's report.
//!
//! The simulator's second mode of operation: ranks are still one real OS
//! thread each exchanging owned messages over channels, but the rank's
//! clock (see the `clock` module) measures instead of pricing. The result
//! is a run at full hardware speed whose mined output is identical to the
//! sim backend's (message matching is by `(scope, src, tag)`, never by
//! arrival time) and whose [`WallTimings`] report where the host's time
//! actually went: sends and receive completions attribute to `exchange`,
//! compute charges to `counting`, I/O charges to `io`.

/// Which execution backend a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Virtual-time simulation: charges priced by a [`crate::MachineProfile`]
    /// under a postal communication model (the default).
    #[default]
    Sim,
    /// Native wall-clock execution: no charges, real elapsed time measured
    /// per rank. Fault plans run for real here: injected crashes are
    /// worker-thread panics, stragglers — and slow
    /// [`crate::ClusterProfile`] ranks — sleep out their extra time, and
    /// drops retransmit against wall-clock RTO timers (see the fault
    /// module).
    Native,
}

impl ExecBackend {
    /// Every backend, in CLI listing order.
    pub const ALL: [ExecBackend; 2] = [ExecBackend::Sim, ExecBackend::Native];

    /// Short name ("sim" / "native").
    pub fn name(&self) -> &'static str {
        match self {
            ExecBackend::Sim => "sim",
            ExecBackend::Native => "native",
        }
    }
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where one rank's real (wall-clock) time went during a native run.
/// All values are seconds since the rank's thread started.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WallTimings {
    /// Total wall time of the rank, thread start to closure return.
    pub total: f64,
    /// Wall time attributed to candidate counting and other compute
    /// charge points.
    pub counting: f64,
    /// Wall time attributed to message exchange: blocking receive waits
    /// plus send/receive handling.
    pub exchange: f64,
    /// Wall time attributed to I/O charge points (database scans).
    pub io: f64,
    /// `(pass, wall seconds at pass entry)` for every
    /// [`crate::Comm::enter_pass`] call, in order.
    pub pass_starts: Vec<(usize, f64)>,
}

impl WallTimings {
    /// The per-category totals as `(name, seconds)` pairs — the
    /// metric-name suffixes the registry records under
    /// `armine.wall.<name>_seconds`.
    pub fn named_times(&self) -> [(&'static str, f64); 4] {
        [
            ("total", self.total),
            ("counting", self.counting),
            ("exchange", self.exchange),
            ("io", self.io),
        ]
    }

    /// Per-pass wall durations `(pass, seconds)`: each pass runs from its
    /// entry to the next pass's entry (the last until `total`).
    pub fn pass_durations(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.pass_starts.len());
        for (i, &(pass, start)) in self.pass_starts.iter().enumerate() {
            let end = self
                .pass_starts
                .get(i + 1)
                .map_or(self.total, |&(_, next)| next);
            out.push((pass, (end - start).max(0.0)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_display_and_default() {
        for b in ExecBackend::ALL {
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(ExecBackend::default(), ExecBackend::Sim);
    }

    #[test]
    fn pass_durations_partition_the_run() {
        let t = WallTimings {
            total: 10.0,
            pass_starts: vec![(1, 0.0), (2, 4.0), (3, 7.0)],
            ..WallTimings::default()
        };
        assert_eq!(t.pass_durations(), vec![(1, 4.0), (2, 3.0), (3, 3.0)]);
        assert!(WallTimings::default().pass_durations().is_empty());
    }
}
