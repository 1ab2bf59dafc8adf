//! Data Distribution (Section III-B, Figure 5) and the DD+comm ablation.
//!
//! DD partitions the candidates **round-robin**: each processor builds a
//! hash tree over M/P candidates but must then see *every* transaction in
//! the database. The original algorithm moves data with a naive page
//! all-to-all — each processor sends every local page to all P−1 others —
//! which serializes on the single-ported senders and receivers and is the
//! first of DD's three problems. The second (processor idling) follows
//! from the same pattern; the third (redundant computation) is inherent in
//! the partitioning: with no ownership structure, every transaction
//! traverses every processor's tree from every starting item, visiting
//! `V(C, L/P) > V(C, L)/P` distinct leaves.
//!
//! The "DD+comm" curve of Figure 10 swaps only the data movement for
//! IDD's ring, isolating how much of IDD's win is communication and how
//! much is the intelligent partitioning. It has no driver here: it is the
//! partitioned pass of [`crate::hd`] at grid `(P, 1)` with this module's
//! round-robin plan, whose filters prune nothing.

use crate::common::{
    build_counter_charged, count_batch_charged, exchange_level, page_bytes, paginate, PassResult,
    PlanShare, RankCtx, TransactionPage, TAG_DATA,
};
use crate::config::ParallelParams;
use armine_core::binpack::partition_round_robin;
use armine_core::candidates::Candidates;
use armine_core::counter::CounterStats;
use armine_core::hashtree::OwnershipFilter;
use armine_mpsim::{Comm, RecvFault};

/// One DD counting pass over `candidates`, the run's `C_k`: the original
/// naive all-to-all, P−1 point-to-point sends per page.
#[allow(clippy::needless_range_loop)] // loop variables are peer ranks
pub(crate) fn count_pass(
    comm: &mut Comm,
    ctx: &RankCtx,
    candidates: &Candidates,
    params: &ParallelParams,
) -> Result<PassResult, RecvFault> {
    let p = ctx.size();
    let me = ctx.my_index;
    let total = candidates.len();
    let part = partition_round_robin(candidates.rows(0..total), p);
    let mine = PlanShare::new(&part, me);
    let mut counter = build_counter_charged(comm, params, candidates, 0..total, mine, total);
    comm.charge_io(ctx.local_bytes());

    let my_pages = paginate(&ctx.local, ctx.page_size);
    // Everyone must loop over the globally largest page count so the
    // exchange pattern stays aligned.
    let page_counts: Vec<u64> = ctx.world(comm).try_allgather(my_pages.len() as u64, 8)?;
    let max_pages = page_counts.iter().copied().max().unwrap_or(0) as usize;

    let mut stats = CounterStats::default();
    let filter = OwnershipFilter::all();
    for round in 0..max_pages {
        let mut world = ctx.world(comm);
        // Send my page of this round to every other processor
        // (asynchronous in the paper, but the single-ported sender
        // still serializes the P−1 link occupancies). Each send is a
        // clone of the same page view; only the charged wire bytes
        // scale with P.
        if round < my_pages.len() {
            let page = &my_pages[round];
            let bytes = page_bytes(page);
            for other in 0..p {
                if other != me {
                    world.send(other, TAG_DATA | (round as u64) << 8, page.clone(), bytes);
                }
            }
        }
        // Drain the P−1 incoming pages of this round. The paper
        // polls whichever buffer has data; a fixed order moves the
        // same bytes through the same single port, so totals agree.
        let mut batch: Vec<TransactionPage> = Vec::new();
        if round < my_pages.len() {
            batch.push(my_pages[round].clone());
        }
        for other in 0..p {
            if other != me && round < page_counts[other] as usize {
                batch.push(world.try_recv(other, TAG_DATA | (round as u64) << 8)?);
            }
        }
        drop(world);
        for page in &batch {
            stats = stats.merged(&count_batch_charged(comm, &mut *counter, page, &filter));
        }
    }

    // Each processor now has complete global counts for its own candidate
    // partition: extract the frequent ones and exchange them so every
    // rank assembles the full F_k.
    let mine_frequent = counter.frequent(ctx.min_count);
    Ok(PassResult {
        level: exchange_level(&mut ctx.world(comm), mine_frequent)?,
        stats,
        db_scans: 1,
        grid: (p, 1),
        candidate_imbalance: part.imbalance,
        counted_candidates: None,
    })
}
