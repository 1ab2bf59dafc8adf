//! Hash Partitioned Apriori (Shintani & Kitsuregawa, PDIS '96) — the
//! alternative candidate-partitioning scheme Section III-E compares IDD
//! against, plus its ELD (Extremely Large itemset Duplication) skew
//! refinement.
//!
//! Where IDD partitions candidates by *first item* and moves
//! **transactions**, HPA partitions them by *hashing the whole itemset*
//! and moves **potential candidates**: during pass `k` every processor
//! enumerates, for each local transaction, all `(|t| choose k)` size-`k`
//! subsets, hashes each to find its owner, and ships it there; owners
//! probe the received subsets against their local candidate table.
//!
//! The paper's two critiques, both observable here:
//!
//! 1. *Balance* — "the distribution of the candidate itemsets over
//!    processors is determined by the hash function", so no bin-packing
//!    can correct it (good spread in expectation, no guarantee).
//! 2. *Volume* — `(I choose k)` subsets per transaction: for `k > 2` HPA
//!    ships far more bytes than DD/IDD ship transactions; for `k = 2` it
//!    can ship less. The `exp hpa` experiment measures this crossover.
//!
//! Every shipped subset is charged, but none is held on the host. The
//! sender looks each one up in the run's sorted `C_k` and puts only the
//! rows of the hits in the message. The message still counts, and is
//! charged for, every subset it stands for. So the ledger and the wire
//! bytes are the paper's, while the host holds one count per row of
//! `C_k` and the rows of a page's hits instead of `Σ (|t| choose k)`
//! boxed sets.
//!
//! ELD duplicates the hottest candidates (here: by their anti-monotone
//! support bound, the minimum count of their `(k−1)`-subsets) on every
//! processor; those are counted locally and summed with one small
//! all-reduce, so their (numerous) potential-candidate instances are
//! never shipped.

use crate::common::{exchange_level, paginate, PassResult, RankCtx, TAG_DATA};
use armine_core::candidates::Candidates;
use armine_core::counter::CounterStats;
use armine_core::stable_hash::owner_of;
use armine_core::{Item, ItemSet};
use armine_mpsim::{Comm, RecvFault};
use std::cmp::Reverse;

/// One HPA counting pass over `candidates`, the run's shared `C_k`,
/// counted by row of it (each subset found by [`Candidates::row_of`]: a
/// binary search of the arena, or the triangular index of `F₁ × F₁`). All
/// addressing is by member index within the current attempt's scope, so
/// the pass re-runs cleanly under a shrunken membership (candidate
/// ownership simply re-hashes over the survivors).
#[allow(clippy::needless_range_loop)] // loop variables are peer ranks
pub(crate) fn count_pass(
    comm: &mut Comm,
    ctx: &RankCtx,
    candidates: &Candidates,
    prev_level: &[(ItemSet, u64)],
    eld_permille: u32,
) -> Result<PassResult, RecvFault> {
    let p = ctx.size();
    let me = ctx.my_index;
    let k = candidates.k();
    let total = candidates.len();
    let row = |r: usize| candidates.row(r);
    let machine = comm.machine().clone();

    // Every processor regenerates the full candidate set (as in IDD).
    comm.advance(total as f64 * machine.t_gen);

    // --- ELD selection: duplicate the hottest candidates everywhere. ----
    // Hotness = upper bound on support = min over (k-1)-subset counts
    // (anti-monotonicity), each found by binary search in the sorted
    // F_{k-1}. A stable sort leaves ties in row order, which is candidate
    // order: deterministic on every rank.
    let eld_count = (total * eld_permille as usize) / 1000;
    let mut hot = vec![false; total];
    if eld_count > 0 {
        let support_without = |set: &[Item], d: usize| {
            let (head, tail) = (&set[..d], &set[d + 1..]);
            let by_items = |(s, _): &(ItemSet, u64)| {
                let (s_head, s_tail) = s.items().split_at(d);
                s_head.cmp(head).then_with(|| s_tail.cmp(tail))
            };
            prev_level
                .binary_search_by(by_items)
                .map_or(0, |i| prev_level[i].1)
        };
        let bound = |r| (0..k).map(|d| support_without(row(r).as_ref(), d)).min();
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by_cached_key(|&r| Reverse(bound(r)));
        for r in order.into_iter().take(eld_count) {
            hot[r] = true;
        }
    }

    // --- Local candidate table. -----------------------------------------
    // One count per row of C_k. This processor counts the rows hashed to
    // it for the whole database (owned), and the ELD duplicates against
    // its own slice (hot, CD-style); every other row stays 0. No
    // candidate is copied.
    let mut loads = vec![0u64; p];
    let mut owned = vec![false; total];
    for r in (0..total).filter(|&r| !hot[r]) {
        let owner = owner_of(row(r).as_ref(), p);
        loads[owner] += 1;
        owned[r] = owner == me;
    }
    let mut counts = vec![0u64; total];
    // Building the local table is the (hash-table) analogue of tree
    // construction: owned plus the duplicated hot set.
    comm.advance((loads[me] as usize + eld_count.min(total)) as f64 * machine.t_insert);
    comm.charge_io(ctx.local_bytes());

    let candidate_imbalance = imbalance_of(&loads);

    // --- Counting rounds. -------------------------------------------------
    // Page-synchronized all-to-all of potential candidates: everyone
    // enumerates subsets of one local page, ships them to their owners,
    // then drains and probes the subsets it received.
    let my_pages = paginate(&ctx.local, ctx.page_size);
    let page_counts: Vec<u64> = ctx.world(comm).try_allgather(my_pages.len() as u64, 8)?;
    let max_pages = page_counts.iter().copied().max().unwrap_or(0) as usize;

    let mut stats = CounterStats::default();
    let subset_bytes = 4 * k;
    for round in 0..max_pages {
        // Enumerate and route this page's potential candidates: per
        // destination, how many subsets it is sent and the rows of those
        // that are candidates.
        let mut outbound: Vec<(u64, Vec<usize>)> = vec![(0, Vec::new()); p];
        let mut generated = 0u64;
        let mut local_probes = 0u64;
        if let Some(page) = my_pages.get(round) {
            for t in page.iter() {
                stats.transactions += 1;
                t.for_each_k_subset(k, |subset| {
                    generated += 1;
                    let found = candidates.row_of(subset);
                    let owner = match found {
                        Some(r) if hot[r] => me,
                        _ => owner_of(subset, p),
                    };
                    if owner == me {
                        local_probes += 1;
                        if let Some(r) = found {
                            counts[r] += 1;
                        }
                    } else {
                        let (sent, rows) = &mut outbound[owner];
                        *sent += 1;
                        rows.extend(found);
                    }
                });
            }
        }
        // Enumeration + local probing cost.
        comm.advance(generated as f64 * machine.t_travers + local_probes as f64 * machine.t_check);
        stats.traversal_steps += generated;
        stats.candidate_checks += local_probes;

        // Ship each processor its batch (one message per destination per
        // round, like the original's bucket sends), charged for every
        // subset it stands for.
        {
            let mut world = ctx.world(comm);
            for other in 0..p {
                if other == me {
                    continue;
                }
                let batch = std::mem::take(&mut outbound[other]);
                let bytes = 8 + subset_bytes * batch.0 as usize;
                world.send(other, TAG_DATA | (round as u64) << 8, batch, bytes);
            }
            // Drain and probe everyone's batch for this round.
            let mut inbound = 0u64;
            for other in 0..p {
                if other == me || round >= page_counts[other] as usize {
                    continue;
                }
                let (sent, rows): (u64, Vec<usize>) =
                    world.try_recv(other, TAG_DATA | (round as u64) << 8)?;
                inbound += sent;
                for r in rows {
                    counts[r] += 1;
                }
            }
            drop(world);
            comm.advance(inbound as f64 * machine.t_check);
            stats.candidate_checks += inbound;
        }
    }

    // --- Frequent extraction. ---------------------------------------------
    // Hot candidates: counted on every processor against its local slice;
    // one small all-reduce completes them (row order, identical
    // everywhere).
    let hot_rows: Vec<usize> = (0..total).filter(|&r| hot[r]).collect();
    if !hot_rows.is_empty() {
        let mut hot_counts: Vec<u64> = hot_rows.iter().map(|&r| counts[r]).collect();
        ctx.world(comm).try_allreduce_sum_u64(&mut hot_counts)?;
        for (r, c) in hot_rows.into_iter().zip(hot_counts) {
            counts[r] = c;
        }
    }
    // Owned candidates already have complete counts. The first member
    // contributes the hot survivors so the merged level stays a disjoint
    // union. Rows ascend as C_k does, so the survivors come out sorted,
    // and only they are boxed.
    let mine_frequent = (0..total)
        .filter(|&r| owned[r] || (hot[r] && me == 0))
        .filter(|&r| counts[r] >= ctx.min_count)
        .map(|r| (ItemSet::from_sorted(row(r).as_ref().to_vec()), counts[r]))
        .collect();
    Ok(PassResult {
        level: exchange_level(&mut ctx.world(comm), mine_frequent)?,
        stats,
        db_scans: 1,
        grid: (p, 1),
        candidate_imbalance,
        counted_candidates: None,
    })
}

fn imbalance_of(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 0.0;
    }
    let avg = total as f64 / loads.len() as f64;
    *loads.iter().max().unwrap() as f64 / avg - 1.0
}

#[cfg(test)]
mod tests {
    use super::imbalance_of;
    use armine_core::candidates::Candidates;
    use armine_core::{Item, Transaction};

    #[test]
    fn imbalance_of_uniform_is_zero() {
        assert!(imbalance_of(&[5, 5, 5]).abs() < 1e-12);
        assert_eq!(imbalance_of(&[]), 0.0);
        assert_eq!(imbalance_of(&[0, 0]), 0.0);
    }

    #[test]
    fn imbalance_of_skew() {
        // avg 10, max 20 → 100%.
        assert!((imbalance_of(&[20, 10, 0]) - 1.0).abs() < 1e-12);
    }

    /// Over every k-subset of a universe, the row lookup HPA routes by
    /// finds exactly what a linear scan of the rows finds: each kept set at
    /// its own row, nothing for a dropped one, and nothing in an empty set
    /// — in an arena, and (k = 2, nothing dropped) in `F₁ × F₁`.
    #[test]
    fn row_of_finds_exactly_the_rows_of_the_arena() {
        let universe = Transaction::new(0, (0..9).map(Item).collect());
        for k in 1..=4 {
            for thin in [1, 2, 3, 7] {
                let (mut arena, mut all) = (Vec::new(), Vec::new());
                universe.for_each_k_subset(k, |set| {
                    if all.len() % thin == 0 {
                        arena.extend_from_slice(set);
                    }
                    all.push(set.to_vec());
                });
                let mut sets = vec![Candidates::from_arena(k, arena.clone())];
                if k == 2 && thin == 1 {
                    sets.push(Candidates::pairs(universe.items().to_vec()));
                }
                for candidates in &sets {
                    for set in &all {
                        let want = arena.chunks_exact(k).position(|row| row == &set[..]);
                        assert_eq!(candidates.row_of(set), want, "k={k} thin={thin} {set:?}");
                    }
                }
                let empty = Candidates::from_arena(k, Vec::new());
                assert_eq!(empty.row_of(&all[0]), None);
            }
        }
    }
}
