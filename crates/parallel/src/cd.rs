//! Count Distribution (Section III-A, Figure 4).
//!
//! Every processor holds the **entire** candidate hash tree, counts its
//! local N/P transactions against it, then a global reduction sums the
//! count vectors (candidate order is identical everywhere because
//! `apriori_gen` is deterministic). CD communicates only `O(M)` counts per
//! pass — hence its excellent transaction scaling — but builds the full
//! tree serially on every processor and, when `|C_k|` exceeds the
//! per-processor memory capacity, partitions the tree and rescans the
//! database once per partition (the Figure 12 penalty).

use crate::common::{build_counter_charged, count_batch_charged, PassResult, RankCtx};
use crate::config::ParallelParams;
use armine_core::candidates::Candidates;
use armine_core::counter::CounterStats;
use armine_core::hashtree::OwnershipFilter;
use armine_mpsim::{Comm, RecvFault};

/// One CD counting pass over `candidates`, the run's `C_k`.
pub(crate) fn count_pass(
    comm: &mut Comm,
    ctx: &RankCtx,
    candidates: &Candidates,
    params: &ParallelParams,
) -> Result<PassResult, RecvFault> {
    let p = ctx.size();
    let total = candidates.len();
    let cap = params.memory_capacity.unwrap_or(usize::MAX).max(1);
    let mut level = Vec::new();
    let mut stats = CounterStats::default();
    let mut scans = 0usize;
    let mut idx = 0usize;
    let mut first_chunk = true;
    while idx < total {
        let end = (idx + cap).min(total);
        // Replicated counter over this chunk. apriori_gen is charged once.
        let gen_charge = if first_chunk { total } else { 0 };
        let all = OwnershipFilter::all();
        let mut counter =
            build_counter_charged(comm, params, candidates, idx..end, all, gen_charge);
        first_chunk = false;
        // Each scan (re-)reads the local slice of the database.
        comm.charge_io(ctx.local_bytes());
        stats = stats.merged(&count_batch_charged(
            comm,
            &mut *counter,
            &ctx.local,
            &OwnershipFilter::all(),
        ));
        // Global reduction: sum the chunk's counts across all ranks.
        ctx.world(comm)
            .try_allreduce_sum_u64(counter.counts_mut())?;
        level.extend(counter.frequent(ctx.min_count));
        scans += 1;
        idx = end;
    }
    // Chunks are contiguous row ranges of the sorted `C_k`, so the
    // concatenated level is already lexicographically sorted.
    Ok(PassResult {
        level,
        stats,
        db_scans: scans.max(1),
        grid: (1, p),
        candidate_imbalance: 0.0,
        counted_candidates: None,
    })
}
