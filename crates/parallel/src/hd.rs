//! Hybrid Distribution (Section III-D, Figure 9) — the one partitioned
//! counting pass.
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
//!
//! "G = P is IDD" is meant literally: [`partitioned_pass`] is the one
//! pass driver of all five partitioned formulations. DD, DD+comm, IDD and
//! single-source IDD run it at grid `(P, 1)` — one column holding
//! everybody, rows of one whose reduction returns at once — and they and
//! HD differ only in the candidate plan, the grid and the page
//! [`Movement`] they hand it.

use crate::common::{
    all_to_all_count, build_counter_charged, chain_count, exchange_level, paginate,
    ring_shift_count, Movement, PassResult, PlanShare, RankCtx,
};
use crate::config::ParallelParams;
use crate::idd::make_partition;
use armine_core::binpack::CandidatePartition;
use armine_core::candidates::Candidates;
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

/// HD's plan and grid for a pass over `candidates`, the run's `C_k`:
/// [`choose_grid`]'s grid, and the candidates planned over its rows.
pub(crate) fn plan_and_grid(
    ctx: &RankCtx,
    candidates: &Candidates,
    params: &ParallelParams,
    group_threshold: usize,
) -> (CandidatePartition, (usize, usize)) {
    let (g, cols) = choose_grid(ctx.size(), candidates.len(), group_threshold);
    // A row's effective capacity is its *slowest* member's: the row's
    // candidate subset is counted in parallel by one rank per column, so
    // the slowest column finishes last. Uniform capacities collapse to
    // all-1.0 rows and the historical equal packing.
    let row_caps: Vec<f64> = ctx
        .capacities
        .chunks(cols)
        .map(|row| row.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let plan = make_partition(candidates, ctx.num_items, &row_caps, params);
    (plan, (g, cols))
}

/// One partitioned counting pass on a `g × cols` grid (`g · cols` = the
/// membership): `plan` splits the candidates over the `g` rows, identically
/// in every column. Each rank builds its counter straight from its row's
/// share of the run's `C_k` (read in place through the plan, never copied
/// out), moves its column's pages past it by `movement`, sums counts along
/// its row, and the column reassembles `F_k`.
pub(crate) fn partitioned_pass(
    comm: &mut Comm,
    ctx: &RankCtx,
    candidates: &Candidates,
    params: &ParallelParams,
    plan: &CandidatePartition,
    (g, cols): (usize, usize),
    movement: Movement,
) -> Result<PassResult, RecvFault> {
    debug_assert_eq!((g * cols, plan.num_procs()), (ctx.size(), g));
    let me = ctx.my_index;
    let total = candidates.len();
    let (my_row, my_col) = (me / cols, me % cols);
    // Grid positions are member-list indices, mapped to global ranks so
    // the sub-scopes stay valid after a recovery shrinks the membership.
    let col_members: Vec<usize> = (0..g).map(|r| ctx.members[r * cols + my_col]).collect();
    let row_members: Vec<usize> = (0..cols).map(|c| ctx.members[my_row * cols + c]).collect();

    let mine = PlanShare::new(plan, my_row);
    let filter = &plan.filters[my_row];
    let mut counter = build_counter_charged(comm, params, candidates, 0..total, mine, total);
    // Ranks holding no transactions (the chain's, past its source) charge
    // nothing here.
    comm.charge_io(ctx.local_bytes());

    // Step 1 — the column's pages move past every member, each counted
    // with the row's filter.
    let my_pages = paginate(&ctx.local, ctx.page_size);
    let stats = {
        let mut col = comm.scope(
            ctx.scope_id(SCOPE_COLUMN + my_col as u64),
            col_members.clone(),
        );
        let count = match movement {
            Movement::Ring => ring_shift_count,
            Movement::AllToAll => all_to_all_count,
            Movement::Chain => chain_count,
        };
        count(&mut col, &my_pages, &mut *counter, filter)?
    };

    // Step 2 — reduction along the row: processors in a row hold the same
    // candidate subset; summing gives global counts. A row of one (every
    // `(P, 1)` caller) already holds them, and the all-reduce returns
    // without a `Comm` call.
    let mut row = comm.scope(ctx.scope_id(SCOPE_ROW + my_row as u64), row_members);
    row.try_allreduce_sum_u64(counter.counts_mut())?;
    drop(row);
    let mine_frequent = counter.frequent(ctx.min_count);

    // Step 3 — all-to-all broadcast along the column: reassemble F_k.
    let mut col = comm.scope(
        ctx.scope_id(SCOPE_COLUMN_BCAST + my_col as u64),
        col_members,
    );
    Ok(PassResult {
        level: exchange_level(&mut col, mine_frequent)?,
        stats,
        db_scans: 1,
        grid: (g, cols),
        candidate_imbalance: plan.imbalance,
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
