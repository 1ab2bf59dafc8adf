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
//! The per-member holdings are the one placement record: adoption and
//! adaptive re-balancing ([`crate::common::rebalance_placement`]) both
//! cut them with [`cut_pool`], and a rank's slice is the view of its own.
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

use crate::common::{page_bytes, share_bounds, RankCtx, TransactionPage};
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
/// `(aborted?, dead-ranks-observed)` words; a member whose attempt (or the
/// re-balance before it) failed with `fault` first sends abort
/// notifications so peers still blocked inside the pass fail their
/// receives and join the sync instead of waiting forever.
///
/// Deterministic and symmetric: all survivors return the same outcome.
pub(crate) fn pass_sync(comm: &mut Comm, ctx: &RankCtx, fault: Option<&RecvFault>) -> SyncOutcome {
    let mut dead: BTreeSet<usize> = BTreeSet::new();
    let mut any_abort = fault.is_some();
    if let Some(RecvFault::Dead { rank, .. }) = fault {
        dead.insert(*rank);
    }
    if any_abort {
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

/// Commits a shrunken membership: each dead rank's holdings are cut over
/// the survivors by their capacities ([`cut_pool`], identically computed
/// everywhere), each survivor re-reads its newly adopted transactions from
/// stable storage (an I/O charge — the database `db` outlives every rank),
/// and the rank context is rebuilt for the next attempt.
pub(crate) fn adopt(
    comm: &mut Comm,
    ctx: &mut RankCtx,
    holdings: &mut [Vec<Holding>],
    db: &TransactionPage,
    dead: &BTreeSet<usize>,
) {
    let me = comm.rank();
    debug_assert!(dead.iter().all(|d| ctx.members.contains(d)));
    (ctx.members, ctx.capacities) = (ctx.members.iter().zip(&ctx.capacities))
        .filter(|&(r, _)| !dead.contains(r))
        .unzip();
    let position = ctx.members.iter().position(|&r| r == me);
    ctx.my_index = position.expect("a dead rank cannot recover");
    let mut adopted_bytes = 0;
    for &d in dead {
        let freed = std::mem::take(&mut holdings[d]);
        for (&sv, taken) in ctx.members.iter().zip(cut_pool(&[&freed], &ctx.capacities)) {
            if sv == me {
                adopted_bytes += held_bytes(db, &taken[0]);
            }
            hold(&mut holdings[sv], taken.concat());
        }
    }
    if adopted_bytes > 0 {
        comm.charge_io(adopted_bytes);
    }
    ctx.local = db.view_of(&holdings[me]);
    comm.note_recovery();
}

/// Cuts `pool`, the holdings of a list of owners read in order as one
/// sequence, into one share per capacity, in proportion to `capacities`
/// ([`share_bounds`]): `shares[j][i]` is what share `j` takes from owner
/// `i`. Adoption cuts a dead member's holdings over the survivors;
/// re-balancing cuts every member's over the members.
pub(crate) fn cut_pool(pool: &[&[Holding]], capacities: &[f64]) -> Vec<Vec<Vec<Holding>>> {
    let lens = pool.iter().flat_map(|held| held.iter().map(Range::len));
    let share = |w: &[usize]| {
        let mut offset = 0;
        let piece = |held: &&[Holding]| slice_ranges(held, &mut offset, w[0], w[1]);
        pool.iter().map(piece).collect()
    };
    share_bounds(lens.sum(), capacities)
        .windows(2)
        .map(share)
        .collect()
}

/// The logical bytes of `held`, ranges of `db`.
pub(crate) fn held_bytes(db: &[Transaction], held: &[Holding]) -> usize {
    held.iter().map(|r| page_bytes(&db[r.clone()])).sum()
}

/// Appends `pieces` to `held`, extending the last range where a piece
/// continues it (and replacing it where it is empty), so a rank whose
/// holdings tile one run of the slab holds one range.
pub(crate) fn hold(held: &mut Vec<Holding>, pieces: Vec<Holding>) {
    for piece in pieces {
        match held.last_mut() {
            Some(last) if last.start == last.end => *last = piece,
            Some(last) if last.end == piece.start => last.end = piece.end,
            _ => held.push(piece),
        }
    }
}

/// The sub-ranges of `ranges`, a run of a logical concatenation starting at
/// its position `offset`, covering the half-open interval `[a, b)` of it;
/// `offset` is advanced past the run.
fn slice_ranges(ranges: &[Holding], offset: &mut usize, a: usize, b: usize) -> Vec<Holding> {
    let mut out = Vec::new();
    for held in ranges {
        let start = a.clamp(*offset, *offset + held.len());
        let end = b.clamp(*offset, *offset + held.len());
        if end > start {
            out.push(held.start + (start - *offset)..held.start + (end - *offset));
        }
        *offset += held.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_ranges_spans_boundaries() {
        let ranges = vec![0..4, 10..13]; // lengths 4 + 3
        assert_eq!(slice_ranges(&ranges, &mut 0, 0, 7), ranges);
        assert_eq!(slice_ranges(&ranges, &mut 0, 0, 2), vec![0..2]);
        assert_eq!(slice_ranges(&ranges, &mut 0, 3, 5), vec![3..4, 10..11]);
        assert_eq!(slice_ranges(&ranges, &mut 0, 4, 7), vec![10..13]);
        assert!(slice_ranges(&ranges, &mut 0, 5, 5).is_empty());
    }

    /// A pool of two owners cut over three capacities: each share takes
    /// its run of the owners' ranges read in order, and `hold` joins the
    /// pieces that continue one another.
    #[test]
    #[allow(clippy::single_range_in_vec_init)] // one-range holdings
    fn cut_pool_splits_owners_in_order() {
        let (a, b) = (vec![0..4, 10..12], vec![4..6]); // lengths 6 + 2
        let shares = cut_pool(&[&a, &b], &[1.0; 3]);
        assert_eq!(
            shares,
            [
                vec![vec![0..2], vec![]],
                vec![vec![2..4, 10..11], vec![]],
                vec![vec![11..12], vec![4..6]]
            ]
        );
        let mut held = vec![7..7];
        hold(&mut held, vec![0..2, 2..4, 10..11]);
        assert_eq!(held, [0..4, 10..11]);
        let skewed = cut_pool(&[&a, &b], &[3.0, 1.0]);
        assert_eq!(
            skewed,
            [vec![vec![0..4, 10..12], vec![]], vec![vec![], vec![4..6]]]
        );
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
