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
//! ELD duplicates the hottest candidates (here: by their anti-monotone
//! support bound, the minimum count of their `(k−1)`-subsets) on every
//! processor; those are counted locally and summed with one small
//! all-reduce, so their (numerous) potential-candidate instances are
//! never shipped.

use crate::common::{exchange_level, paginate, PassResult, RankCtx, TAG_DATA};
use armine_core::counter::CounterStats;
use armine_core::stable_hash::owner_of;
use armine_core::{Item, ItemSet};
use armine_mpsim::{Comm, RecvFault};
use std::cmp::Reverse;
use std::collections::HashMap;

/// One HPA counting pass over `candidates`, `C_k` as a `k`-strided arena.
/// All addressing is by member index within the current attempt's scope,
/// so the pass re-runs cleanly under a shrunken membership (candidate
/// ownership simply re-hashes over the survivors).
#[allow(clippy::needless_range_loop)] // loop variables are peer ranks
pub(crate) fn count_pass(
    comm: &mut Comm,
    ctx: &RankCtx,
    k: usize,
    candidates: &[Item],
    prev_level: &[(ItemSet, u64)],
    eld_permille: u32,
) -> Result<PassResult, RecvFault> {
    let p = ctx.size();
    let me = ctx.my_index;
    let total = candidates.len() / k;
    let machine = comm.machine().clone();

    // Every processor regenerates the full candidate set (as in IDD).
    comm.advance(total as f64 * machine.t_gen);

    // --- ELD selection: duplicate the hottest candidates everywhere. ----
    // Hotness = upper bound on support = min over (k-1)-subset counts
    // (anti-monotonicity). A stable sort leaves ties in row order, which is
    // candidate order: deterministic on every rank.
    let eld_count = (total * eld_permille as usize) / 1000;
    let mut hot = vec![false; total];
    if eld_count > 0 {
        let prev_counts: HashMap<&[Item], u64> =
            prev_level.iter().map(|(s, c)| (s.items(), *c)).collect();
        let bound = |row: &[Item]| {
            let count = |d: usize| prev_counts.get(&[&row[..d], &row[d + 1..]].concat()[..]);
            (0..k).map(|d| count(d).copied().unwrap_or(0)).min()
        };
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by_cached_key(|&i| Reverse(bound(&candidates[i * k..][..k])));
        for i in order.into_iter().take(eld_count) {
            hot[i] = true;
        }
    }

    // --- Local candidate tables. ----------------------------------------
    // Owned: hash-partitioned candidates this processor counts for the
    // whole database. Hot: the ELD duplicates, counted CD-style. Only
    // these two are boxed; the rest of C_k stays in the run's arena.
    let mut owned: HashMap<ItemSet, u64> = HashMap::new();
    let mut hot_counts: HashMap<ItemSet, u64> = HashMap::new();
    let mut loads = vec![0u64; p];
    for (row, is_hot) in candidates.chunks_exact(k).zip(hot) {
        let set = || ItemSet::from_sorted(row.to_vec());
        if is_hot {
            hot_counts.insert(set(), 0);
            continue;
        }
        let owner = owner_of(row, p);
        loads[owner] += 1;
        if owner == me {
            owned.insert(set(), 0);
        }
    }
    // Building the local tables is the (hash-table) analogue of tree
    // construction: owned plus the duplicated hot set.
    comm.advance((owned.len() + hot_counts.len()) as f64 * machine.t_insert);
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
        // Enumerate and route this page's potential candidates.
        let mut outbound: Vec<Vec<ItemSet>> = vec![Vec::new(); p];
        let mut generated = 0u64;
        let mut local_probes = 0u64;
        if let Some(page) = my_pages.get(round) {
            for t in page.iter() {
                stats.transactions += 1;
                for subset in t.k_subsets(k) {
                    generated += 1;
                    if let Some(c) = hot_counts.get_mut(&subset) {
                        *c += 1;
                        local_probes += 1;
                        continue;
                    }
                    let owner = owner_of(subset.items(), p);
                    if owner == me {
                        local_probes += 1;
                        if let Some(c) = owned.get_mut(&subset) {
                            *c += 1;
                        }
                    } else {
                        outbound[owner].push(subset);
                    }
                }
            }
        }
        // Enumeration + local probing cost.
        comm.advance(generated as f64 * machine.t_travers + local_probes as f64 * machine.t_check);
        stats.traversal_steps += generated;
        stats.candidate_checks += local_probes;

        // Ship each processor its batch (one message per destination per
        // round, like the original's bucket sends).
        {
            let mut world = ctx.world(comm);
            for other in 0..p {
                if other == me {
                    continue;
                }
                let batch = std::mem::take(&mut outbound[other]);
                let bytes = 8 + subset_bytes * batch.len();
                world.send(other, TAG_DATA | (round as u64) << 8, batch, bytes);
            }
            // Drain and probe everyone's batch for this round.
            let mut inbound = 0u64;
            for other in 0..p {
                if other == me || round >= page_counts[other] as usize {
                    continue;
                }
                let batch: Vec<ItemSet> = world.try_recv(other, TAG_DATA | (round as u64) << 8)?;
                inbound += batch.len() as u64;
                for subset in batch {
                    if let Some(c) = owned.get_mut(&subset) {
                        *c += 1;
                    }
                }
            }
            drop(world);
            comm.advance(inbound as f64 * machine.t_check);
            stats.candidate_checks += inbound;
        }
    }

    // --- Frequent extraction. ---------------------------------------------
    // Hot candidates: counted on every processor against its local slice;
    // one small all-reduce completes them (identical order everywhere).
    let mut hot_sorted: Vec<ItemSet> = hot_counts.keys().cloned().collect();
    hot_sorted.sort();
    let mut hot_vec: Vec<u64> = hot_sorted.iter().map(|c| hot_counts[c]).collect();
    if !hot_vec.is_empty() {
        ctx.world(comm).try_allreduce_sum_u64(&mut hot_vec)?;
    }
    // Owned candidates already have complete counts. The first member
    // contributes the hot survivors so the merged level stays a disjoint
    // union.
    let mut mine_frequent: Vec<(ItemSet, u64)> = owned
        .into_iter()
        .filter(|&(_, c)| c >= ctx.min_count)
        .collect();
    if me == 0 {
        mine_frequent.extend(
            hot_sorted
                .into_iter()
                .zip(hot_vec)
                .filter(|&(_, c)| c >= ctx.min_count),
        );
    }
    mine_frequent.sort_by(|a, b| a.0.cmp(&b.0));
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
}
