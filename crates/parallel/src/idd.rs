//! Intelligent Data Distribution (Section III-C, Figure 7).
//!
//! IDD fixes all three DD problems:
//!
//! 1. **Communication** — the naive all-to-all becomes a ring pipeline
//!    (Figure 6): one asynchronous send + receive per step, overlapped
//!    with processing of the in-hand buffer.
//! 2. **Idling** — with point-to-point neighbour traffic and balanced
//!    buffers, no processor waits on a congested peer.
//! 3. **Redundant work** — candidates are partitioned by **first item**
//!    (bin-packed for balance, optionally split by second item for hot
//!    first items), and every processor filters transaction starting
//!    items against its ownership bitmap at the hash-tree root, so each
//!    transaction's work is *divided* among processors rather than
//!    repeated: `V(C/P, L/P) ≈ V(C, L)/P`.
//!
//! IDD has no pass driver of its own: it is the partitioned pass of
//! [`crate::hd`] at grid `(P, 1)` with [`make_partition`]'s plan. What
//! lives here is that plan and the single-source chain.

use crate::common::{
    build_counter_charged, count_batch_charged, exchange_level, page_bytes, paginate, PassResult,
    PlanShare, RankCtx, TransactionPage, TAG_DATA,
};
use crate::config::ParallelParams;
use armine_core::binpack::{partition_by_first_item, partition_two_level, CandidatePartition};
use armine_core::candidates::Candidates;
use armine_core::counter::CounterStats;
use armine_mpsim::{Comm, RecvFault};

/// Builds IDD's candidate partition of `candidates`, the run's `C_k`:
/// bin-packed single-level by default, two-level when a split threshold is
/// configured. `capacities` are the placement seam's relative bin speeds
/// (one per processor) — uniform under static placement, re-scored per
/// pass under adaptive.
pub(crate) fn make_partition(
    candidates: &Candidates,
    num_items: u32,
    capacities: &[f64],
    params: &ParallelParams,
) -> CandidatePartition {
    let rows = candidates.rows(0..candidates.len());
    match params.split_threshold {
        Some(t) => partition_two_level(rows, num_items, capacities, t),
        None => partition_by_first_item(rows, num_items, capacities),
    }
}

/// One IDD counting pass in **single-source** mode — the deployment the
/// paper's conclusion highlights: "when all the data is coming from a
/// database server or a single file system, one processor can read data
/// from the single source and pass the data along the communication
/// pipeline defined in the algorithm." Global rank 0 holds the whole
/// database and streams pages down the member chain; every rank counts
/// each page against its candidate partition as it flows past.
///
/// Under crash recovery the source itself can die: its database is then
/// redistributed across the survivors by adoption, the chain has no head
/// to stream from, and the pass falls back to the partitioned pass at
/// grid `(P, 1)` — plain IDD: same candidate partition, same filters,
/// same `F_k`.
pub(crate) fn count_pass_single_source(
    comm: &mut Comm,
    ctx: &RankCtx,
    candidates: &Candidates,
    params: &ParallelParams,
) -> Result<PassResult, RecvFault> {
    let p = ctx.size();
    let me = ctx.my_index;
    let total = candidates.len();
    let part = make_partition(candidates, ctx.num_items, &ctx.capacities, params);
    if ctx.members[0] != 0 {
        // The source is dead and its pages now live on several survivors:
        // circulate them with the ring instead of the broken chain.
        return crate::hd::partitioned_pass(comm, ctx, candidates, params, &part, (p, 1));
    }
    let mine = PlanShare::new(&part, me);
    let filter = &part.filters[me];
    let mut counter = build_counter_charged(comm, params, candidates, 0..total, mine, total);
    if me == 0 {
        comm.charge_io(ctx.local_bytes());
    }
    // Page count is known only at the source; broadcast it down the
    // chain first (the source owns all transactions in this mode).
    let my_pages = paginate(&ctx.local, ctx.page_size);
    let num_pages = {
        let mut world = ctx.world(comm);
        let value = (me == 0).then_some(my_pages.len() as u64);
        world.try_broadcast(0, value, 8)? as usize
    };
    let mut stats = CounterStats::default();
    #[allow(clippy::needless_range_loop)] // only the source indexes its pages
    for page_idx in 0..num_pages {
        let tag = TAG_DATA | (page_idx as u64) << 8;
        let mut world = ctx.world(comm);
        let page: TransactionPage = if me == 0 {
            my_pages[page_idx].clone()
        } else {
            world.try_recv(me - 1, tag)?
        };
        // Forward down the chain (a page-view refcount bump) before
        // counting, so downstream ranks overlap with our subset work.
        if me + 1 < p {
            let bytes = page_bytes(&page);
            let sh = world.isend(me + 1, tag, page.clone(), bytes);
            drop(world);
            stats = stats.merged(&count_batch_charged(comm, &mut *counter, &page, filter));
            ctx.world(comm).wait_send(sh);
        } else {
            drop(world);
            stats = stats.merged(&count_batch_charged(comm, &mut *counter, &page, filter));
        }
    }

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

#[cfg(test)]
mod tests {
    use crate::{Algorithm, ParallelMiner, ParallelParams};
    use armine_core::apriori::{Apriori, AprioriParams};
    use armine_core::ItemSet;
    use armine_datagen::QuestParams;

    #[test]
    fn single_source_matches_serial_and_partitioned_idd() {
        let dataset = QuestParams::paper_t15_i6()
            .num_transactions(300)
            .num_items(80)
            .num_patterns(30)
            .seed(301)
            .generate();
        let min_count = 9;
        let serial = Apriori::new(AprioriParams::with_min_support_count(min_count).max_k(4))
            .mine(dataset.transactions());
        let want: Vec<(ItemSet, u64)> = serial
            .frequent
            .iter()
            .map(|(s, c)| (s.clone(), c))
            .collect();
        let params = ParallelParams::with_min_support_count(min_count)
            .page_size(40)
            .max_k(4);
        for procs in [1, 3, 6] {
            let run = ParallelMiner::new(procs).mine(Algorithm::IddSingleSource, &dataset, &params);
            let got: Vec<(ItemSet, u64)> =
                run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
            assert_eq!(got, want, "procs={procs}");
        }
    }

    #[test]
    fn single_source_moves_data_down_the_whole_chain() {
        let dataset = QuestParams::paper_t15_i6()
            .num_transactions(400)
            .num_items(80)
            .num_patterns(30)
            .seed(303)
            .generate();
        let params = ParallelParams::with_min_support_count(10)
            .page_size(50)
            .max_k(3);
        let p = 6;
        let run = ParallelMiner::new(p).mine(Algorithm::IddSingleSource, &dataset, &params);
        // Interior ranks forward every page down the chain; the tail
        // forwards none (its sends are only the frequent-set exchange, which
        // all ranks share). So the tail must send markedly less than any
        // interior rank.
        let sent: Vec<u64> = run.ranks.iter().map(|r| r.bytes_sent).collect();
        for interior in 0..p - 1 {
            assert!(
                (sent[p - 1] as f64) < 0.8 * sent[interior] as f64,
                "tail must forward no pipeline data: {sent:?}"
            );
        }
    }
}
