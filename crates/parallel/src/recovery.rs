//! Pass-boundary checkpointing and crash recovery shared by **all**
//! formulations (CD, DD, DD+comm, IDD, IDD-1src, HD, PDM, NPA, HPA).
//!
//! Every pass of every formulation ends with an exchange that leaves the
//! complete global `F_k` replicated on all ranks, so the frequent-itemset
//! lattice committed so far **is** the checkpoint — recovery never needs
//! to re-execute a finished pass. What recovery must reconstruct is:
//!
//! 1. **Agreement on membership** — which ranks are dead and whether the
//!    interrupted pass committed anywhere ([`pass_sync`], a two-round
//!    flooding protocol).
//! 2. **Data placement** — the dead rank's share of the database, which
//!    survivors re-read from stable storage ([`adopt`]; the database slab
//!    is the simulator's stand-in for the paper's disk-resident database
//!    and a [`Holding`] is a range of it, so adoption charges I/O, not
//!    messages, and copies what it re-reads as a disk read would).
//!
//! The decision rule is deliberately conservative: if **any** member
//! aborted the pass, everyone discards the attempt and re-executes it
//! under the shrunken membership; only a unanimously completed pass
//! commits. Because a committed pass is always computed from the same
//! candidate set and the full database — regardless of how many members
//! share the counting — the final lattice is bit-identical to a
//! fault-free run.
//!
//! ## Why round-2 failures must not commit
//!
//! The two rounds are a FloodSet exchange tolerating one crash per pass
//! boundary. A rank that crashes mid-round delivers its message to some
//! peers and a tombstone to the rest, so naive "everything I saw" unions
//! diverge. Round-1 failure observations are safe to commit because round
//! 2 floods them to everyone. A failure first observed **in round 2** has
//! no later round to flood through — some peers received the crasher's
//! round-2 message instead and would disagree — so it is deliberately
//! left uncommitted; the next pass deterministically re-observes it (the
//! dead rank's tombstone is persistent) and commits it then.

use crate::common::{page_bytes, share_bounds, PassResult, RankCtx};
use armine_core::Transaction;
use armine_mpsim::{Comm, RecvFault};
use std::collections::BTreeSet;
use std::ops::Range;

/// Scope-id namespace for the membership-sync rounds (epoch-shifted by
/// [`RankCtx::scope_id`], so retries never cross-deliver).
const SCOPE_SYNC: u64 = 1 << 38;
/// Tags for the two flooding rounds.
const TAG_SYNC_R1: u64 = 1 << 21;
const TAG_SYNC_R2: u64 = (1 << 21) | 1;

/// What the membership sync agreed on at a pass boundary.
pub(crate) struct SyncOutcome {
    /// Ranks every survivor commits as dead (ascending).
    pub dead: BTreeSet<usize>,
    /// Whether any member aborted the attempt — if so, the pass is
    /// re-executed under the shrunken membership.
    pub any_abort: bool,
}

/// A contiguous range of the database slab — the unit of data placement
/// tracked for recovery.
pub(crate) type Holding = Range<usize>;

/// The initial placement: rank `r` holds the slab between cut points `r`
/// and `r + 1`.
pub(crate) fn initial_holdings(cuts: &[usize]) -> Vec<Vec<Holding>> {
    let ranges = cuts.windows(2).map(|w| w[0]..w[1]);
    ranges.map(|held| vec![held]).collect()
}

/// Two-round membership sync at a pass boundary. Every member floods
/// `(aborted?, dead-ranks-observed)` words; a failed attempt first sends
/// abort notifications so peers still blocked inside the pass fail their
/// receives and join the sync instead of waiting forever.
///
/// Deterministic and symmetric: all survivors return the same outcome.
pub(crate) fn pass_sync(
    comm: &mut Comm,
    ctx: &RankCtx,
    attempt: &Result<PassResult, RecvFault>,
) -> SyncOutcome {
    let mut dead: BTreeSet<usize> = BTreeSet::new();
    let mut any_abort = attempt.is_err();
    if let Err(RecvFault::Dead { rank, .. }) = attempt {
        dead.insert(*rank);
    }
    if attempt.is_err() {
        let me = comm.rank();
        let peers: Vec<usize> = ctx.members.iter().copied().filter(|&r| r != me).collect();
        comm.send_abort(&peers, ctx.epoch);
    }

    // Round 1: everyone reports its own attempt outcome. Receive failures
    // here are safe to commit — round 2 floods them to every survivor.
    let (union, abort, failures) = exchange_round(comm, ctx, TAG_SYNC_R1, any_abort, &dead);
    dead.extend(union);
    dead.extend(failures);
    any_abort |= abort;

    // Round 2: flood the round-1 union. Receive failures observed only
    // here are NOT committed (see module docs); the crash is re-observed
    // and committed at the next pass boundary.
    let (union, abort, _round2_failures) = exchange_round(comm, ctx, TAG_SYNC_R2, any_abort, &dead);
    dead.extend(union);
    any_abort |= abort;

    SyncOutcome { dead, any_abort }
}

/// One sync round: send `(abort, dead)` to every other member, then
/// receive each member's word. Returns the union of received dead sets,
/// the OR of received abort flags, and the set of members whose word
/// could not be received (they are dead).
fn exchange_round(
    comm: &mut Comm,
    ctx: &RankCtx,
    tag: u64,
    any_abort: bool,
    dead: &BTreeSet<usize>,
) -> (BTreeSet<usize>, bool, BTreeSet<usize>) {
    let mut scope = comm.scope(ctx.scope_id(SCOPE_SYNC), ctx.members.clone());
    let me = scope.rank();
    let word: Vec<u64> = std::iter::once(any_abort as u64)
        .chain(dead.iter().map(|&r| r as u64))
        .collect();
    let bytes = 8 + 8 * word.len();
    for peer in 0..scope.size() {
        if peer != me {
            scope.send(peer, tag, word.clone(), bytes);
        }
    }
    let mut union = BTreeSet::new();
    let mut abort = false;
    let mut failures = BTreeSet::new();
    for peer in 0..scope.size() {
        if peer == me {
            continue;
        }
        // Sync receives ignore abort notifications: an aborting member
        // still participates in the sync, only a dead one cannot.
        match scope.try_recv_sync::<Vec<u64>>(peer, tag) {
            Ok(w) => {
                abort |= w[0] != 0;
                union.extend(w[1..].iter().map(|&r| r as usize));
            }
            Err(fault) => {
                failures.insert(fault.rank());
            }
        }
    }
    (union, abort, failures)
}

/// Commits a shrunken membership: the dead ranks' holdings are split
/// contiguously among the survivors (identically computed everywhere,
/// through the placement seam's [`share_bounds`] — crash plans always
/// run with uniform capacities, which that seam maps to the exact even
/// split), each survivor re-reads its newly adopted transactions from
/// stable storage (an I/O charge — the database `db` outlives every
/// rank), and the rank context is rebuilt for the next attempt.
pub(crate) fn adopt(
    comm: &mut Comm,
    ctx: &mut RankCtx,
    holdings: &mut [Vec<Holding>],
    db: &[Transaction],
    dead: &BTreeSet<usize>,
) {
    let me = comm.rank();
    let survivors: Vec<usize> = ctx
        .members
        .iter()
        .copied()
        .filter(|r| !dead.contains(r))
        .collect();
    debug_assert!(survivors.contains(&me), "a dead rank cannot recover");
    let survivor_caps: Vec<f64> = ctx
        .members
        .iter()
        .zip(&ctx.capacities)
        .filter(|&(r, _)| !dead.contains(r))
        .map(|(_, &c)| c)
        .collect();
    let kept = holdings[me].len();
    for &d in dead {
        debug_assert!(ctx.members.contains(&d), "committed dead ranks are members");
        let freed = std::mem::take(&mut holdings[d]);
        let total: usize = freed.iter().map(Range::len).sum();
        let bounds = share_bounds(total, &survivor_caps);
        for (i, &sv) in survivors.iter().enumerate() {
            let (a, b) = (bounds[i], bounds[i + 1]);
            if b > a {
                holdings[sv].extend(slice_ranges(&freed, a, b));
            }
        }
    }
    let adopted_bytes: usize = holdings[me][kept..]
        .iter()
        .map(|held| page_bytes(&db[held.clone()]))
        .sum();
    if adopted_bytes > 0 {
        comm.charge_io(adopted_bytes);
    }
    // Holdings are scattered ranges of the database: re-reading them
    // from stable storage copies the grown slice into a slab of its own,
    // as the disk read it models would.
    let reread: Vec<Transaction> = holdings[me]
        .iter()
        .flat_map(|held| db[held.clone()].iter().cloned())
        .collect();
    ctx.local = reread.into();
    ctx.members = survivors;
    ctx.capacities = survivor_caps;
    ctx.my_index = ctx
        .members
        .iter()
        .position(|&r| r == me)
        .expect("survivor stays a member");
    comm.note_recovery();
}

/// The sub-ranges of `ranges` (a logical concatenation) covering the
/// half-open interval `[a, b)` of its combined length.
fn slice_ranges(ranges: &[Holding], a: usize, b: usize) -> Vec<Holding> {
    let mut out = Vec::new();
    let mut offset = 0;
    for held in ranges {
        let start = a.clamp(offset, offset + held.len());
        let end = b.clamp(offset, offset + held.len());
        if end > start {
            out.push(held.start + (start - offset)..held.start + (end - offset));
        }
        offset += held.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_ranges_spans_boundaries() {
        let ranges = vec![0..4, 10..13]; // lengths 4 + 3
        assert_eq!(slice_ranges(&ranges, 0, 7), ranges);
        assert_eq!(slice_ranges(&ranges, 0, 2), vec![0..2]);
        assert_eq!(slice_ranges(&ranges, 3, 5), vec![3..4, 10..11]);
        assert_eq!(slice_ranges(&ranges, 4, 7), vec![10..13]);
        assert!(slice_ranges(&ranges, 5, 5).is_empty());
    }

    #[test]
    fn initial_holdings_map_rank_to_partition() {
        // Ranks 0 and 1 of an even split of three transactions, then the
        // single-source placement of the same three.
        let one = |held: Holding| vec![held];
        assert_eq!(initial_holdings(&[0, 2, 3]), [one(0..2), one(2..3)]);
        assert_eq!(initial_holdings(&[0, 3, 3]), [one(0..3), one(3..3)]);
    }
}
