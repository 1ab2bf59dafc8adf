//! The execution-backend selector.
//!
//! The simulator's second mode of operation: ranks are still one real OS
//! thread each exchanging owned messages over channels, but the rank's
//! clock (see the `clock` module) measures instead of pricing. The result
//! is a run at full hardware speed whose mined output is identical to the
//! sim backend's (message matching is by `(scope, src, tag)`, never by
//! arrival time) and whose [`crate::RankStats`] report where the host's
//! time actually went: sends and receive completions attribute to `idle`
//! (exchange), compute charges to `busy`, I/O charges to `io`.

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

/// A native rank's compute and exchange brackets under the names the
/// benchmark probe reads: `counting` is [`crate::RankStats::busy`],
/// `exchange` is [`crate::RankStats::idle`]. Kept only for the probe's
/// `ParallelRun::wall`; every other reader uses `RankStats`.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct WallTimings {
    /// Wall seconds attributed to compute charge points.
    pub counting: f64,
    /// Wall seconds attributed to message exchange.
    pub exchange: f64,
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
}
