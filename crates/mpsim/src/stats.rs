//! Per-rank accounting of time and traffic.

/// Where one rank's time went, plus its traffic counters: the one
/// per-rank time record on both backends. The seconds are virtual on the
/// sim backend; on the native backend they are the wall brackets the
/// clock measured, `busy` for compute charge points, `idle` for message
/// exchange (blocking waits plus send and receive handling) and `io` for
/// I/O charge points.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    /// Final clock (response time of this rank).
    pub clock: f64,
    /// Time spent in explicit compute charges.
    pub busy: f64,
    /// Time spent blocked waiting for messages that had not arrived.
    pub idle: f64,
    /// Time spent in I/O charges.
    pub io: f64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub messages_received: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Transmission attempts lost to injected faults and re-sent after an
    /// ack-timeout backoff (0 in fault-free runs). The backoff is charged
    /// to the virtual clock on the sim backend and really slept out on
    /// the wall clock on the native one.
    pub retransmits: u64,
    /// Failure-detector timeouts: receives that concluded the awaited
    /// peer was dead (after waiting out the plan's `detect_timeout` — in
    /// virtual time on sim, real time on native).
    pub timeouts: u64,
    /// Recovery events this rank committed (memberships shrunk and work
    /// redistributed after a peer crash).
    pub recoveries: u64,
}

impl RankStats {
    /// Time attributable to communication: everything that is neither
    /// compute, idle wait, nor I/O.
    pub fn comm_time(&self) -> f64 {
        (self.clock - self.busy - self.idle - self.io).max(0.0)
    }

    /// The time fields as `(name, seconds)` pairs — the metric-name
    /// suffixes the registry records under `armine.rank.<name>_seconds`.
    pub fn named_times(&self) -> [(&'static str, f64); 4] {
        [
            ("clock", self.clock),
            ("busy", self.busy),
            ("idle", self.idle),
            ("io", self.io),
        ]
    }

    /// The traffic and fault counters as `(name, count)` pairs — the
    /// metric-name suffixes the registry records under
    /// `armine.rank.<name>`. Exhaustively destructured so a newly added
    /// counter cannot be silently dropped from the export.
    pub fn named_counters(&self) -> [(&'static str, u64); 7] {
        let RankStats {
            clock: _,
            busy: _,
            idle: _,
            io: _,
            messages_sent,
            bytes_sent,
            messages_received,
            bytes_received,
            retransmits,
            timeouts,
            recoveries,
        } = *self;
        [
            ("messages_sent", messages_sent),
            ("bytes_sent", bytes_sent),
            ("messages_received", messages_received),
            ("bytes_received", bytes_received),
            ("retransmits", retransmits),
            ("timeouts", timeouts),
            ("recoveries", recoveries),
        ]
    }
}

/// Load imbalance across ranks for any per-rank metric: `max/avg − 1`.
pub fn imbalance(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    let avg = v.iter().sum::<f64>() / v.len() as f64;
    if avg <= 0.0 {
        return 0.0;
    }
    let max = v.iter().cloned().fold(f64::MIN, f64::max);
    max / avg - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_time_is_residual() {
        let s = RankStats {
            clock: 10.0,
            busy: 6.0,
            idle: 2.0,
            io: 1.0,
            ..Default::default()
        };
        assert!((s.comm_time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comm_time_never_negative() {
        let s = RankStats {
            clock: 1.0,
            busy: 2.0,
            ..Default::default()
        };
        assert_eq!(s.comm_time(), 0.0);
    }

    #[test]
    fn imbalance_of_equal_loads_is_zero() {
        assert!(imbalance([3.0, 3.0, 3.0]) < 1e-12);
    }

    #[test]
    fn imbalance_metric_value() {
        // avg 2, max 3 → 0.5.
        assert!((imbalance([1.0, 2.0, 3.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn imbalance_degenerate_inputs() {
        assert_eq!(imbalance([]), 0.0);
        assert_eq!(imbalance([0.0, 0.0]), 0.0);
    }
}
