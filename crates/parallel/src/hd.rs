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
//! "G = P is IDD" and "G = 1 is CD" are meant literally: [`partitioned_pass`]
//! is the one pass driver of every formulation but HPA. DD, DD+comm, IDD
//! and single-source IDD run it at grid `(P, 1)` — one column holding
//! everybody, rows of one whose reduction returns at once. CD, NPA and
//! PDM run it at `(1, P)` with the one-share plan and the
//! [`Movement::Local`] count, NPA with its own [`Reduction`]. HD at
//! `G = 1` has CD's grid and reduction, and a one-row plan holding every
//! candidate (by a first-item bitmap), but counts by the ring, page by
//! page. They differ only in the candidate plan, the grid, the
//! [`Movement`], the [`Reduction`] and the memory cap they hand it.

use crate::common::{
    build_counter_charged, exchange_level, Movement, PassResult, PlanShare, RankCtx, Reduction,
};
use crate::config::ParallelParams;
use crate::idd::make_partition;
use armine_core::binpack::CandidatePartition;
use armine_core::candidates::Candidates;
use armine_core::counter::CounterStats;
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

/// The one counting pass of every formulation but HPA, on a `g × cols`
/// grid (`g · cols` = the membership): `plan` splits the candidates over
/// the `g` rows, identically in every column. Each rank builds its counter
/// straight from its row's share of `candidates` (read in place through
/// the plan, never copied out), counts what `movement` brings past it
/// down its column, and `reduction` turns the row's counts into `F_k`.
///
/// A `cap` (CD's and PDM's `--memory-capacity`) cuts the rows into runs of
/// at most `cap` candidates, one database scan each (Figure 12): each run
/// is built, read, counted and reduced in turn, and `apriori_gen` is
/// charged with the first. The runs are contiguous rows of the sorted
/// `C_k`, so their levels concatenate in order.
#[allow(clippy::too_many_arguments)] // the pass's (plan, grid, movement, reduction, cap)
pub(crate) fn partitioned_pass(
    comm: &mut Comm,
    ctx: &RankCtx,
    candidates: &Candidates,
    params: &ParallelParams,
    plan: &CandidatePartition,
    (g, cols): (usize, usize),
    movement: Movement,
    reduction: Reduction,
    cap: Option<usize>,
) -> Result<PassResult, RecvFault> {
    debug_assert_eq!((g * cols, plan.num_procs()), (ctx.size(), g));
    let me = ctx.my_index;
    let total = candidates.len();
    let cap = cap.unwrap_or(usize::MAX).max(1);
    let (my_row, my_col) = (me / cols, me % cols);
    // Grid positions are member-list indices, mapped to global ranks so
    // the sub-scopes stay valid after a recovery shrinks the membership.
    let col_members: Vec<usize> = (0..g).map(|r| ctx.members[r * cols + my_col]).collect();
    let row_members: Vec<usize> = (0..cols).map(|c| ctx.members[my_row * cols + c]).collect();
    let filter = &plan.filters[my_row];
    let mut level = Vec::new();
    let mut stats = CounterStats::default();
    for lo in (0..total).step_by(cap) {
        let mine = PlanShare::new(plan, my_row);
        let gen_charge = if lo == 0 { total } else { 0 };
        let rows = lo..(lo + cap).min(total);
        let mut counter = build_counter_charged(comm, params, candidates, rows, mine, gen_charge);
        // Ranks holding no transactions (the chain's, past its source)
        // charge nothing here.
        comm.charge_io(ctx.local_bytes());

        // Step 1 — count what the movement brings down the column, with
        // the row's filter.
        let mut col = comm.scope(
            ctx.scope_id(SCOPE_COLUMN + my_col as u64),
            col_members.clone(),
        );
        let counted = movement.count(&mut col, &ctx.local, ctx.page_size, &mut *counter, filter)?;
        stats = stats.merged(&counted);

        // Step 2 — the row holds one candidate subset: reduce its counts
        // to its frequent ones.
        let mut row = comm.scope(ctx.scope_id(SCOPE_ROW + my_row as u64), row_members.clone());
        let row_frequent = match reduction {
            Reduction::AllReduce => {
                row.try_allreduce_sum_u64(counter.counts_mut())?;
                counter.frequent(ctx.min_count)
            }
            Reduction::Gather => crate::npa::gather_sum(&mut row, &mut *counter, ctx.min_count)?,
        };
        drop(row);

        // Step 3 — all-to-all broadcast along the column: reassemble the
        // run's F_k. A row or column of one (every `(P, 1)` and `(1, P)`
        // grid's) makes no `Comm` call.
        let mut col = comm.scope(
            ctx.scope_id(SCOPE_COLUMN_BCAST + my_col as u64),
            col_members.clone(),
        );
        level.extend(exchange_level(&mut col, row_frequent)?);
    }
    Ok(PassResult {
        level,
        stats,
        db_scans: total.div_ceil(cap).max(1),
        grid: (g, cols),
        candidate_imbalance: plan.imbalance,
        counted_candidates: Some(total),
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
