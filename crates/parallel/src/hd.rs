//! Hybrid Distribution (Section III-D, Figure 9).
//!
//! HD arranges the P processors as a `G × (P/G)` grid. The candidate set
//! is partitioned among the **G rows** (every column holds one full copy,
//! partitioned down its G members); the transactions are spread over all
//! P processors as usual. One pass is then:
//!
//! 1. **Columns run IDD**: each column of G processors ring-shifts its
//!    column's transactions and counts them against the column's candidate
//!    partition (bitmap-filtered).
//! 2. **Rows run CD's reduction**: processors along a row hold the *same*
//!    candidate subset, so an all-reduce along the row produces global
//!    counts for that subset.
//! 3. **Columns broadcast the survivors**: an all-to-all broadcast along
//!    each column reassembles the full `F_k` on every processor.
//!
//! `G` is chosen dynamically per pass: `G = 1` (pure CD) while the
//! candidate set is small, growing as `⌈M/m⌉` (rounded to a divisor of P)
//! when it is large — Table II's configurations.

use crate::common::{
    build_counter_charged, level_wire_size, merge_levels, paginate, ring_shift_count, PassResult,
    RankCtx,
};
use crate::config::ParallelParams;
use crate::idd::make_partition;
use armine_core::ItemSet;
use armine_mpsim::{Comm, RecvFault};

/// Scope-id namespaces for the grid's sub-communicators.
const SCOPE_COLUMN: u64 = 1_000;
const SCOPE_ROW: u64 = 2_000;
const SCOPE_COLUMN_BCAST: u64 = 3_000;

/// Chooses the processor-grid configuration `(G, P/G)` for a pass with
/// `m_total` candidates and per-group threshold `m` — the paper's dynamic
/// grouping. `G = 1` when `M < m` (run CD on all processors); otherwise
/// the smallest divisor of `P` that is at least `⌈M/m⌉` (capped at `P`,
/// which is pure IDD).
pub fn choose_grid(p: usize, m_total: usize, m: usize) -> (usize, usize) {
    assert!(p >= 1 && m >= 1);
    if m_total < m {
        return (1, p);
    }
    let want = m_total.div_ceil(m);
    let g = (1..=p)
        .filter(|d| p.is_multiple_of(*d))
        .find(|&d| d >= want)
        .unwrap_or(p);
    (g, p / g)
}

/// One HD counting pass.
pub(crate) fn count_pass(
    comm: &mut Comm,
    ctx: &RankCtx,
    k: usize,
    candidates: &[ItemSet],
    params: &ParallelParams,
    group_threshold: usize,
) -> Result<PassResult, RecvFault> {
    let p = ctx.size();
    let me = ctx.my_index;
    let total = candidates.len();
    let (g, cols) = choose_grid(p, total, group_threshold);
    let (my_row, my_col) = (me / cols, me % cols);
    // Grid positions are member-list indices, mapped to global ranks so
    // the sub-scopes stay valid after a recovery shrinks the membership.
    let col_members: Vec<usize> = (0..g).map(|r| ctx.members[r * cols + my_col]).collect();
    let row_members: Vec<usize> = (0..cols).map(|c| ctx.members[my_row * cols + c]).collect();

    // Candidates partitioned among the G rows — identical in every column.
    // A row's effective capacity is its *slowest* member's: the row's
    // candidate subset is counted in parallel by one rank per column, so
    // the slowest column finishes last. Uniform capacities collapse to
    // all-1.0 rows and the historical equal packing.
    let row_caps: Vec<f64> = (0..g)
        .map(|r| {
            (0..cols)
                .map(|c| ctx.capacities[r * cols + c])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let part = make_partition(candidates, ctx.num_items, &row_caps, params);
    let mine = part.parts[my_row].clone();
    let filter = part.filters[my_row].clone();
    let mut counter = build_counter_charged(comm, k, params.counter, params.tree, mine, total);
    comm.charge_io(ctx.local_bytes());

    // Step 1 — IDD within the column: shift the column's transactions
    // around the column ring, counting with the bitmap filter.
    let my_pages = paginate(&ctx.local, ctx.page_size);
    let (stats, counts) = {
        let mut col = comm.scope(
            ctx.scope_id(SCOPE_COLUMN + my_col as u64),
            col_members.clone(),
        );
        let page_counts: Vec<u64> = col.try_allgather(my_pages.len() as u64, 8)?;
        let max_pages = page_counts.iter().copied().max().unwrap_or(0) as usize;
        let stats = ring_shift_count(&mut col, &my_pages, max_pages, &mut *counter, &filter)?;
        (stats, counter.count_vector())
    };

    // Step 2 — reduction along the row: processors in a row hold the same
    // candidate subset; summing gives global counts.
    let mut counts = counts;
    comm.scope(ctx.scope_id(SCOPE_ROW + my_row as u64), row_members)
        .try_allreduce_sum_u64(&mut counts)?;
    counter.set_count_vector(&counts);
    let mine_frequent = counter.frequent(ctx.min_count);

    // Step 3 — all-to-all broadcast along the column: reassemble F_k.
    let bytes = level_wire_size(&mine_frequent);
    let col_levels = comm
        .scope(
            ctx.scope_id(SCOPE_COLUMN_BCAST + my_col as u64),
            col_members,
        )
        .try_allgather(mine_frequent, bytes)?;
    Ok(PassResult {
        level: merge_levels(col_levels),
        stats,
        db_scans: 1,
        grid: (g, cols),
        candidate_imbalance: part.imbalance,
        counted_candidates: None,
    })
}

#[cfg(test)]
mod tests {
    use super::choose_grid;

    #[test]
    fn small_candidate_sets_run_cd() {
        assert_eq!(choose_grid(64, 34_000, 50_000), (1, 64));
        assert_eq!(choose_grid(8, 0, 100), (1, 8));
    }

    #[test]
    fn table2_configurations_reproduced() {
        // Table II: P = 64, m = 50K.
        let m = 50_000;
        assert_eq!(choose_grid(64, 351_000, m), (8, 8), "pass 2");
        assert_eq!(choose_grid(64, 4_348_000, m), (64, 1), "pass 3 (pure IDD)");
        assert_eq!(choose_grid(64, 115_000, m), (4, 16), "pass 4");
        assert_eq!(choose_grid(64, 76_000, m), (2, 32), "pass 5");
        assert_eq!(choose_grid(64, 56_000, m), (2, 32), "pass 6");
        assert_eq!(choose_grid(64, 34_000, m), (1, 64), "pass 7 (pure CD)");
    }

    #[test]
    fn grid_always_divides_p() {
        for p in [1usize, 2, 6, 12, 64, 128] {
            for m_total in [0usize, 10, 1_000, 100_000, 10_000_000] {
                let (g, cols) = choose_grid(p, m_total, 1_000);
                assert_eq!(g * cols, p, "p={p} m={m_total}");
            }
        }
    }

    #[test]
    fn huge_m_caps_at_pure_idd() {
        assert_eq!(choose_grid(16, usize::MAX / 2, 1), (16, 1));
    }
}
