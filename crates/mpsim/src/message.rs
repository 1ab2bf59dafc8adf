//! Message envelopes carried between ranks.

use std::any::Any;

/// A matching key: messages are addressed by (scope id, source rank, tag),
/// mirroring MPI's (communicator, source, tag) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct MatchKey {
    /// The scope (sub-communicator) the message belongs to.
    pub scope: u64,
    /// Global rank of the sender.
    pub src: usize,
    /// User tag.
    pub tag: u64,
}

/// What an envelope carries: either user data, or a control notification
/// about the *sender's* fate. Control packets are matched by source rank
/// only (their key's scope/tag are ignored) and ride the same per-sender
/// FIFO channels as data, so "sent before crashing/aborting" is exactly
/// "delivered before the control packet" — the property the deterministic
/// failure-detection rule relies on.
pub(crate) enum Packet {
    /// Ordinary user payload; the receiver downcasts to the expected type.
    Data(Box<dyn Any + Send>),
    /// The sender's thread finished (cleanly or by panic) without a crash
    /// being injected. Receives still pending on it are protocol bugs and
    /// panic loudly instead of hanging.
    Goodbye {
        /// Whether the sender finished by panicking.
        panicked: bool,
    },
    /// The sender crashed (fault injection) at the given virtual time.
    Tombstone {
        /// Sender's virtual clock at the crash.
        at: f64,
    },
    /// The sender abandoned attempt `epoch` of a recovery protocol at the
    /// given virtual time; peers blocked on it in the same epoch fail
    /// their receives instead of waiting forever.
    Abort {
        /// The recovery-protocol attempt being abandoned.
        epoch: u64,
        /// Sender's virtual clock at the abort.
        at: f64,
    },
}

/// A message in flight. The payload is type-erased; the receiver downcasts
/// with the type it expects (a mismatch is a protocol bug and panics with
/// a diagnostic).
pub(crate) struct Envelope {
    pub key: MatchKey,
    /// Virtual time at which the last byte reaches the receiver's inbox.
    pub arrival: f64,
    /// Wire size, charged again at the receiver as unload time
    /// (single-port model).
    pub bytes: usize,
    pub packet: Packet,
}

impl Envelope {
    /// Whether this envelope carries user data (vs. a control packet).
    pub(crate) fn is_data(&self) -> bool {
        matches!(self.packet, Packet::Data(_))
    }
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.packet {
            Packet::Data(_) => "data",
            Packet::Goodbye { .. } => "goodbye",
            Packet::Tombstone { .. } => "tombstone",
            Packet::Abort { .. } => "abort",
        };
        f.debug_struct("Envelope")
            .field("key", &self.key)
            .field("arrival", &self.arrival)
            .field("bytes", &self.bytes)
            .field("kind", &kind)
            .finish()
    }
}
