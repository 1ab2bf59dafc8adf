//! Machinery shared by all nine parallel formulations: the per-rank pass
//! loop and the candidates and levels its ranks share, cost charging,
//! pass-1 counting, the views every rank holds of the one database slab
//! (pages, and each slice the view of its rank's holdings, the placement
//! record that re-balancing and recovery move), and the four movements and
//! two reductions of the one counting pass: the local count of the replicated
//! formulations, the ring pipeline of Figure 6, DD's naive all-to-all and
//! the single-source chain; the row all-reduce, or NPA's gather.

use crate::config::{ParallelParams, PlacementPolicy};
use crate::recovery::{cut_pool, held_bytes, hold, initial_holdings, pass_sync, Holding};
use armine_core::binpack::CandidatePartition;
use armine_core::candidates::Candidates;
use armine_core::counter::{CandidateCounter, CounterStats, Share};
use armine_core::hashtree::OwnershipFilter;
use armine_core::{Item, ItemSet, Transaction};
use armine_mpsim::{Comm, CountingWork, FaultPlan, RecvFault, Scope};
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex, OnceLock};

/// An immutable view of a run of transactions inside a shared slab — the
/// unit of data movement, and the shape of a rank's local slice.
///
/// The database is one slab, the dataset's own allocation
/// ([`armine_core::Dataset::shared_transactions`]); a rank's slice is the
/// view of its holdings ([`TransactionPage::view_of`]) and [`paginate`]
/// cuts that into page views. Sending a view through the simulator clones it
/// (a refcount bump), never the transactions. The virtual wire cost is
/// unaffected — every send still charges the page's full logical
/// [`page_bytes`] — so this is purely a host-side saving (DESIGN.md §5.6).
#[derive(Clone)]
pub(crate) struct TransactionPage {
    slab: Arc<Vec<Transaction>>,
    range: Range<usize>,
}

impl TransactionPage {
    /// The sub-view `range` of this view (indices relative to it).
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= self.len());
        TransactionPage {
            slab: Arc::clone(&self.slab),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }

    /// The view of `held`, ranges of this view read in order: the sub-view
    /// when they are one range (or none), else a re-read copy of them in a
    /// slab of its own, as a disk read of scattered ranges would make.
    pub(crate) fn view_of(&self, held: &[Holding]) -> Self {
        match held {
            [] => self.slice(0..0),
            [range] => self.slice(range.clone()),
            _ => {
                let reread = held
                    .iter()
                    .flat_map(|range| self[range.clone()].iter().cloned());
                reread.collect::<Vec<_>>().into()
            }
        }
    }
}

impl Deref for TransactionPage {
    type Target = [Transaction];

    fn deref(&self) -> &[Transaction] {
        &self.slab[self.range.clone()]
    }
}

/// A view of a whole slab.
impl From<Arc<Vec<Transaction>>> for TransactionPage {
    fn from(slab: Arc<Vec<Transaction>>) -> Self {
        let range = 0..slab.len();
        TransactionPage { slab, range }
    }
}

/// A freshly materialised slab, viewed whole.
impl From<Vec<Transaction>> for TransactionPage {
    fn from(transactions: Vec<Transaction>) -> Self {
        Arc::new(transactions).into()
    }
}

/// Tag space for transaction pages (round/step encoded in high bits).
pub(crate) const TAG_DATA: u64 = 1 << 20;

/// Tag for pass-boundary re-balancing transfers (adaptive placement).
pub(crate) const TAG_REBAL: u64 = 1 << 22;

/// What every rank knows at the start of a pass attempt. Under crash
/// recovery the last three fields evolve: the member list shrinks as
/// deaths commit, the local slice grows as the rank adopts a dead peer's
/// data, and the epoch counts pass-boundary syncs so that message scopes
/// of abandoned attempts can never cross-deliver into a retry.
pub(crate) struct RankCtx {
    /// This rank's slice of the database: the view of its holdings, a
    /// range of the database slab, or a re-read copy when it holds several.
    pub local: TransactionPage,
    /// Item-universe size.
    pub num_items: u32,
    /// Resolved absolute minimum support count.
    pub min_count: u64,
    /// Transactions per communication buffer.
    pub page_size: usize,
    /// Global ranks still participating, ascending. Initially `0..P`.
    pub members: Vec<usize>,
    /// This rank's index in `members`.
    pub my_index: usize,
    /// Recovery epoch: incremented after every membership sync.
    pub epoch: u64,
    /// Relative placement capacity of each member (indexed like
    /// `members`): how much work the placement seam steers to that rank.
    /// All 1.0 under static placement; re-scored at every pass boundary
    /// from measured counting times under adaptive placement. Identical
    /// on every rank — partitioning decisions derived from it must agree
    /// everywhere.
    pub capacities: Vec<f64>,
}

impl RankCtx {
    /// The context of a fresh run over `procs` ranks.
    pub fn new(
        local: TransactionPage,
        num_items: u32,
        min_count: u64,
        page_size: usize,
        rank: usize,
        procs: usize,
    ) -> Self {
        RankCtx {
            local,
            num_items,
            min_count,
            page_size,
            members: (0..procs).collect(),
            my_index: rank,
            epoch: 0,
            capacities: vec![1.0; procs],
        }
    }

    /// Wire bytes of this rank's whole local slice.
    pub(crate) fn local_bytes(&self) -> usize {
        page_bytes(&self.local)
    }

    /// Number of participating ranks.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Namespaces a scope id by the recovery epoch. Epoch 0 maps `base`
    /// to itself, so fault-free runs use exactly the historical ids.
    pub(crate) fn scope_id(&self, base: u64) -> u64 {
        debug_assert!(base < 1 << 40, "scope base collides with epoch bits");
        (self.epoch << 40) | base
    }

    /// The all-members scope of the current attempt — [`Comm::world`]
    /// while membership is full, a shrunken epoch-stamped sub-scope after
    /// a recovery.
    pub fn world<'a>(&self, comm: &'a mut Comm) -> Scope<'a> {
        comm.scope(self.scope_id(0), self.members.clone())
    }
}

/// What one pass produced on this rank. `level` is the **global** `F_k`,
/// identical on every rank (each algorithm ends its pass with an exchange
/// that establishes this).
pub(crate) struct PassResult {
    pub level: Vec<(ItemSet, u64)>,
    pub stats: CounterStats,
    pub db_scans: usize,
    pub grid: (usize, usize),
    pub candidate_imbalance: f64,
    /// Candidates actually counted; differs from `|C_k|` only for
    /// filter-pruning algorithms (PDM). `None` means "all of them".
    pub counted_candidates: Option<usize>,
}

pub(crate) type Level = Arc<Vec<(ItemSet, u64)>>;

/// What a run's ranks hold once: each pass's `C_k`, generated by the first
/// rank to ask (`F₁ × F₁` read from `F₁` at `k = 2`, one `k`-strided arena
/// of items after), and `F_k`, kept from the first to commit. Recovery
/// cannot tell, nor can the model, which charges every rank for all of
/// `C_k`.
#[derive(Default)]
pub(crate) struct RunShare {
    passes: Mutex<Vec<Arc<PassShare>>>,
}

/// Pass `k`'s `C_k` and committed `F_k`, each set once, at `passes[k - 1]`.
type PassShare = (OnceLock<Arc<Candidates>>, OnceLock<Level>);

impl RunShare {
    fn pass(&self, k: usize) -> Arc<PassShare> {
        let mut passes = self.passes.lock().expect("a rank panicked holding it");
        if passes.len() < k {
            passes.resize_with(k, Default::default);
        }
        Arc::clone(&passes[k - 1])
    }

    /// `C_k`, its rows ascending, generated straight from `prev`, the
    /// committed `F_{k-1}`.
    pub(crate) fn candidates(&self, k: usize, prev: &[(ItemSet, u64)]) -> Arc<Candidates> {
        let generate = || Arc::new(Candidates::generate(k, prev, |(set, _)| set.items()));
        Arc::clone(self.pass(k).0.get_or_init(generate))
    }

    /// Commits this rank's `F_k`, returning the run's copy (checked equal).
    pub(crate) fn commit(&self, k: usize, level: Vec<(ItemSet, u64)>) -> Level {
        let mut mine = Some(level);
        let pass = self.pass(k);
        let shared = pass.1.get_or_init(|| Arc::new(mine.take().expect("once")));
        debug_assert!(mine.is_none_or(|m| **shared == m), "ranks differ on F_{k}");
        Arc::clone(shared)
    }
}

/// Per-pass record a rank keeps for the metrics assembly.
pub(crate) struct RankPass {
    pub k: usize,
    pub candidates_total: usize,
    pub counted_candidates: usize,
    pub grid: (usize, usize),
    pub stats: CounterStats,
    pub db_scans: usize,
    pub candidate_imbalance: f64,
    pub clock_end: f64,
}

/// A rank's full output.
pub(crate) struct RankOutput {
    pub levels: Vec<Level>,
    pub passes: Vec<RankPass>,
}

/// Contiguous share boundaries of the placement seam: cut points
/// splitting `total` units among ranks in proportion to their
/// `capacities` — `bounds[i]..bounds[i+1]` is rank `i`'s share. Every
/// consumer of contiguous data shares (initial page placement, recovery
/// adoption, pass-boundary re-balancing) slices through this one
/// function so static and adaptive placement agree on the geometry.
///
/// **Uniform** capacities take an exact integer path (`i·total/n`),
/// reproducing the historical even split bit for bit; heterogeneous
/// capacities use proportional cut points.
pub(crate) fn share_bounds(total: usize, capacities: &[f64]) -> Vec<usize> {
    let n = capacities.len();
    assert!(n > 0, "need at least one rank");
    if capacities.windows(2).all(|w| w[0] == w[1]) {
        return (0..=n).map(|i| i * total / n).collect();
    }
    let sum: f64 = capacities.iter().sum();
    let mut bounds = Vec::with_capacity(n + 1);
    let mut prefix = 0.0f64;
    bounds.push(0);
    for (i, &c) in capacities.iter().enumerate() {
        prefix += c;
        let cut = if i + 1 == n {
            total
        } else {
            ((total as f64 * prefix / sum) as usize).min(total)
        };
        // Cut points are monotone even if float rounding wobbles.
        bounds.push(cut.max(*bounds.last().unwrap()));
    }
    bounds
}

/// Pass-boundary capacity re-scoring — the adaptive placement policy's
/// feedback loop. Every member reports the counting time it spent on the
/// pass just committed (virtual `busy` under sim, the measured counting
/// bracket under native); the allgathered vector is identical everywhere,
/// so every rank derives the same new capacities: a rank's effective
/// speed is the share it was just given (∝ old capacity) divided by the
/// time it took. Times are clamped to 1% of the slowest rank's so a rank
/// that happened to do no counting (e.g. an empty slice) cannot grab an
/// unbounded share.
///
/// When `mobile_pages` is set (replicated-candidate formulations, whose
/// counting load is proportional to the local slice), every member cuts
/// the members' holdings over the new capacities ([`cut_pool`]) and each
/// (old owner, new owner) overlap moves in one message charged its
/// [`page_bytes`], all sends posted before any receive blocks. A failed
/// receive leaves the placement half moved: the caller carries the fault
/// into the next attempt, whose abort restores the committed placement.
pub(crate) fn rebalance_placement(
    comm: &mut Comm,
    ctx: &mut RankCtx,
    holdings: &mut [Vec<Holding>],
    db: &TransactionPage,
    mobile_pages: bool,
    busy_mark: &mut f64,
) -> Result<(), RecvFault> {
    let busy = comm.stats().busy;
    let spent = (busy - *busy_mark).max(0.0);
    *busy_mark = busy;
    // Each member's busy time for the pass, charged 16 bytes on the wire.
    let times: Vec<f64> = ctx.world(comm).try_allgather(spent, 16)?;
    let t_max = times.iter().copied().fold(0.0f64, f64::max);
    if t_max > 0.0 {
        let floor = t_max * 1e-2;
        let raw: Vec<f64> = ctx
            .capacities
            .iter()
            .zip(&times)
            .map(|(&cap, &t)| cap / t.max(floor))
            .collect();
        let sum: f64 = raw.iter().sum();
        let n = raw.len() as f64;
        ctx.capacities = raw.iter().map(|&r| r * n / sum).collect();
    }
    if !mobile_pages {
        return Ok(());
    }
    // shares[j][i]: what member j takes from member i.
    let pool: Vec<&[Holding]> = ctx.members.iter().map(|&m| &holdings[m][..]).collect();
    let shares = cut_pool(&pool, &ctx.capacities);
    let me = ctx.my_index;
    let mut world = ctx.world(comm);
    let mut sends = Vec::new();
    for (j, taken) in shares.iter().enumerate() {
        if j != me && !taken[me].is_empty() {
            let bytes = held_bytes(db, &taken[me]);
            sends.push(world.isend(j, TAG_REBAL, taken[me].clone(), bytes));
        }
    }
    for (i, piece) in shares[me].iter().enumerate() {
        if i != me && !piece.is_empty() {
            let received: Vec<Holding> = world.try_recv(i, TAG_REBAL)?;
            debug_assert_eq!(&received, piece, "transfer plans diverged");
        }
    }
    for sh in sends {
        world.wait_send(sh);
    }
    for (&m, taken) in ctx.members.iter().zip(shares) {
        holdings[m].clear();
        hold(&mut holdings[m], taken.concat());
    }
    ctx.local = db.view_of(&holdings[comm.rank()]);
    Ok(())
}

/// One processor's share of a candidate plan, for
/// [`build_counter_charged`]: the candidates `plan` gives `proc`, whole
/// first-item rows at a time where its filter owns them whole.
pub(crate) struct PlanShare<'a> {
    plan: &'a CandidatePartition,
    proc: usize,
}

impl<'a> PlanShare<'a> {
    pub(crate) fn new(plan: &'a CandidatePartition, proc: usize) -> Self {
        PlanShare { plan, proc }
    }
}

impl Share for PlanShare<'_> {
    fn holds(&self, r: usize, items: &[Item]) -> bool {
        self.plan.owns(self.proc, r, items)
    }

    fn holds_from(&self, first: Item) -> Option<bool> {
        self.plan.owns_from(self.proc, first)
    }
}

/// Builds the configured counting structure over this rank's share of
/// the run's `C_k`: the rows of `range` that `share` holds, read in place ([`armine_core::counter::CounterBackend::build_share`]).
/// Charges `apriori_gen` work for `total_candidates`, the **full** candidate
/// set (in the model every processor regenerates all of `C_k` before keeping
/// its share — Section III-C), plus insertion work for the share only.
/// Returns the counter with clean work counters.
pub(crate) fn build_counter_charged(
    comm: &mut Comm,
    params: &ParallelParams,
    candidates: &Candidates,
    range: Range<usize>,
    share: impl Share,
    total_candidates: usize,
) -> Box<dyn CandidateCounter> {
    let (t_gen, t_insert) = {
        let m = comm.machine();
        (m.t_gen, m.t_insert)
    };
    comm.advance(total_candidates as f64 * t_gen);
    let mut counter = params
        .counter
        .build_share(params.tree, candidates, range, share);
    comm.advance(counter.stats().inserts as f64 * t_insert);
    counter.reset_stats();
    counter
}

/// Counts one batch of transactions through the counter, charges the
/// clock for the work actually performed (everything except insertions,
/// which [`build_counter_charged`] prices at build time), and returns the
/// counters (for pass metrics). The counter's work ledger is reset
/// afterwards.
///
/// The stats delta maps onto the simulator's structure-agnostic counting
/// ledger field for field: the hash tree's distinct leaf visits and the
/// trie's depth-`k` node arrivals both price as `node_visits`; the
/// vertical backend's bitmap words pass through as `intersection_words`
/// (zero for the horizontal backends, which keeps their charge expression
/// — and the goldens — bit-identical).
fn count_batch_charged(
    comm: &mut Comm,
    counter: &mut dyn CandidateCounter,
    batch: &[Transaction],
    filter: &OwnershipFilter,
) -> CounterStats {
    counter.count_all(batch, filter);
    let delta = counter.stats();
    counter.reset_stats();
    comm.charge_counting(&CountingWork {
        inserts: delta.inserts,
        transactions: delta.transactions,
        traversal_steps: delta.traversal_steps,
        node_visits: delta.distinct_leaf_visits,
        candidate_checks: delta.candidate_checks,
        intersection_words: delta.intersection_words,
    });
    delta
}

/// Pass 1: dense local item counting + global reduction. Identical in all
/// nine formulations (the candidate set `C_1` is the item universe; no
/// tree is needed).
pub(crate) fn parallel_pass1(
    comm: &mut Comm,
    ctx: &RankCtx,
) -> Result<Vec<(ItemSet, u64)>, RecvFault> {
    let mut counts = vec![0u64; ctx.num_items as usize];
    let mut touched = 0usize;
    for t in ctx.local.iter() {
        for item in t.items() {
            counts[item.index()] += 1;
        }
        touched += t.len();
    }
    let (t_travers, t_trans) = {
        let m = comm.machine();
        (m.t_travers, m.t_trans)
    };
    comm.advance(touched as f64 * t_travers + ctx.local.len() as f64 * t_trans);
    comm.charge_io(ctx.local_bytes());
    ctx.world(comm).try_allreduce_sum_u64(&mut counts)?;
    Ok(counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= ctx.min_count)
        .map(|(id, &c)| (ItemSet::singleton(Item(id as u32)), c))
        .collect())
}

/// Cuts a slice into page views of at most `page_size` transactions —
/// the `chunks(page_size)` of the same sequence, in O(pages) with no
/// transaction copied.
pub(crate) fn paginate(local: &TransactionPage, page_size: usize) -> Vec<TransactionPage> {
    let page_size = page_size.max(1);
    (0..local.len())
        .step_by(page_size)
        .map(|lo| local.slice(lo..local.len().min(lo + page_size)))
        .collect()
}

/// Wire bytes of one page.
pub(crate) fn page_bytes(page: &[Transaction]) -> usize {
    page.iter().map(Transaction::wire_size).sum()
}

/// Wire bytes of a frequent-set level exchanged between processors.
pub(crate) fn level_wire_size(level: &[(ItemSet, u64)]) -> usize {
    8 + level.iter().map(|(s, _)| 4 * s.len() + 8).sum::<usize>()
}

/// Ends a partitioned pass: every member of `scope` holds complete counts
/// for its own (disjoint) candidate share, so an all-to-all broadcast of
/// the frequent ones assembles the global `F_k` on all of them. A member
/// alone holds it already, and is spared the all-gather's copy of it.
pub(crate) fn exchange_level(
    scope: &mut Scope<'_>,
    mine_frequent: Vec<(ItemSet, u64)>,
) -> Result<Vec<(ItemSet, u64)>, RecvFault> {
    if scope.size() == 1 {
        return Ok(mine_frequent);
    }
    let bytes = level_wire_size(&mine_frequent);
    Ok(merge_levels(scope.try_allgather(mine_frequent, bytes)?))
}

/// Merges per-processor frequent levels (disjoint candidate partitions)
/// into the global, lexicographically sorted `F_k`.
fn merge_levels(parts: Vec<Vec<(ItemSet, u64)>>) -> Vec<(ItemSet, u64)> {
    let mut merged: Vec<(ItemSet, u64)> = parts.into_iter().flatten().collect();
    merged.sort_by(|a, b| a.0.cmp(&b.0));
    debug_assert!(
        merged.windows(2).all(|w| w[0].0 < w[1].0),
        "candidate partitions must be disjoint"
    );
    merged
}

/// How the counting pass brings the transactions past a rank's counter
/// (Section III): the four movements differ in nothing else. Each counts
/// every transaction it sees exactly once and returns the counting work it
/// performed; each page movement first agrees on how many pages go round,
/// and fails (for pass-boundary recovery) when a peer it waits on dies or
/// abandons the attempt.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Movement {
    /// CD's: the local slice, counted in one batch; no page moves.
    Local,
    /// IDD's ring pipeline ([`ring_shift_count`]).
    Ring,
    /// DD's naive all-to-all ([`all_to_all_count`]).
    AllToAll,
    /// IDD-1src's chain from member 0 ([`chain_count`]).
    Chain,
}

impl Movement {
    /// Counts `local`, this member's slice, and whatever `scope`'s other
    /// members move past it, in pages of `page_size` transactions — except
    /// [`Movement::Local`], which never paginates: the vertical counter's
    /// ledger is per call, so pages would change its charges.
    pub(crate) fn count(
        self,
        scope: &mut Scope<'_>,
        local: &TransactionPage,
        page_size: usize,
        counter: &mut dyn CandidateCounter,
        filter: &OwnershipFilter,
    ) -> Result<CounterStats, RecvFault> {
        let count = match self {
            Movement::Local => {
                return Ok(count_batch_charged(scope.comm(), counter, local, filter))
            }
            Movement::Ring => ring_shift_count,
            Movement::AllToAll => all_to_all_count,
            Movement::Chain => chain_count,
        };
        count(scope, &paginate(local, page_size), counter, filter)
    }
}

/// How the counting pass sums the counts of a row, whose members hold the
/// same candidates, into the row's frequent ones; the column's
/// [`exchange_level`] then assembles `F_k`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Reduction {
    /// CD's: an all-reduce along the row.
    AllReduce,
    /// NPA's: a gather to the row's member 0, which sums, keeps the
    /// frequent ones and broadcasts them ([`crate::npa::gather_sum`]).
    Gather,
}

/// The ring-pipelined all-to-all data movement of Figure 6: every member's
/// pages visit every member exactly once; the in-hand buffer is processed
/// while the shift is in flight (asynchronous send/recv → compute and
/// communication overlap in virtual time). Every member loops over the
/// ring's largest page count, all-gathered first, so the shift pattern
/// stays aligned.
fn ring_shift_count(
    scope: &mut Scope<'_>,
    my_pages: &[TransactionPage],
    counter: &mut dyn CandidateCounter,
    filter: &OwnershipFilter,
) -> Result<CounterStats, RecvFault> {
    let p = scope.size();
    let page_counts: Vec<u64> = scope.try_allgather(my_pages.len() as u64, 8)?;
    let max_pages = page_counts.iter().copied().max().unwrap_or(0) as usize;
    let mut stats = CounterStats::default();
    // Members whose slice has fewer pages than the ring's longest member
    // circulate this placeholder instead: the (zero-byte) message must
    // still flow each step so the shift pattern stays aligned, but there
    // is nothing in it to count.
    let empty = TransactionPage::from(Vec::new());
    // Counts `sbuf` and charges the clock — skipped for empty buffers,
    // which is virtual-time neutral (an empty batch yields an all-zero
    // work delta) and saves the host-side bookkeeping.
    let mut count_buf =
        |scope: &mut Scope<'_>, sbuf: &TransactionPage, stats: &mut CounterStats| {
            if !sbuf.is_empty() {
                let delta = count_batch_charged(scope.comm(), counter, sbuf, filter);
                *stats = stats.merged(&delta);
            }
        };
    for page_idx in 0..max_pages {
        // FillBuffer: my own page for this round.
        let mut sbuf: TransactionPage = my_pages
            .get(page_idx)
            .cloned()
            .unwrap_or_else(|| empty.clone());
        for step in 0..p.saturating_sub(1) {
            let tag = TAG_DATA | ((page_idx as u64) << 24) | ((step as u64) << 8);
            let rh = scope.irecv(scope.left(), tag);
            let bytes = page_bytes(&sbuf);
            let sh = scope.isend(scope.right(), tag, sbuf.clone(), bytes);
            // Subset(HTree, SBuf) — overlapped with the in-flight shift.
            count_buf(scope, &sbuf, &mut stats);
            // MPI_Waitall.
            let incoming: TransactionPage = scope.try_wait_recv(rh)?;
            scope.wait_send(sh);
            sbuf = incoming;
        }
        // Process the final buffer (travelled the whole ring).
        count_buf(scope, &sbuf, &mut stats);
    }
    Ok(stats)
}

/// DD's naive all-to-all (Section III-B, Figure 5): in round `r` every
/// member sends its `r`-th page to each of the P−1 others with blocking
/// sends, then receives the others' `r`-th pages and counts its own page
/// first, then theirs in member order. The sends serialize on the
/// single-ported senders and receivers, and the idling follows: DD's first
/// two problems (its third, redundant traversal, is the round-robin
/// plan's). The page counts of every peer are all-gathered first, so each
/// member knows which receives a round holds.
#[allow(clippy::needless_range_loop)] // loop variables are peer ranks
fn all_to_all_count(
    scope: &mut Scope<'_>,
    my_pages: &[TransactionPage],
    counter: &mut dyn CandidateCounter,
    filter: &OwnershipFilter,
) -> Result<CounterStats, RecvFault> {
    let (p, me) = (scope.size(), scope.rank());
    let page_counts: Vec<u64> = scope.try_allgather(my_pages.len() as u64, 8)?;
    let max_pages = page_counts.iter().copied().max().unwrap_or(0) as usize;
    let mut stats = CounterStats::default();
    for round in 0..max_pages {
        let tag = TAG_DATA | (round as u64) << 8;
        // Asynchronous in the paper, but the single-ported sender still
        // serializes the P−1 link occupancies. Each send is a clone of the
        // same page view; only the charged wire bytes scale with P.
        let mine = my_pages.get(round);
        if let Some(page) = mine {
            let bytes = page_bytes(page);
            for other in (0..p).filter(|&other| other != me) {
                scope.send(other, tag, page.clone(), bytes);
            }
        }
        // The paper polls whichever buffer has data; a fixed order moves
        // the same bytes through the same single port, so totals agree.
        let mut batch: Vec<TransactionPage> = mine.into_iter().cloned().collect();
        for other in 0..p {
            if other != me && round < page_counts[other] as usize {
                batch.push(scope.try_recv(other, tag)?);
            }
        }
        for page in &batch {
            let delta = count_batch_charged(scope.comm(), counter, page, filter);
            stats = stats.merged(&delta);
        }
    }
    Ok(stats)
}

/// IDD-1src's chain (the paper's conclusion): member 0, the source, holds
/// every page and broadcasts how many there are; each page then flows
/// down the member chain, every member but the tail forwarding it
/// (a page-view refcount bump) before counting it, so downstream members
/// overlap their counting with its.
#[allow(clippy::needless_range_loop)] // only the source indexes its pages
fn chain_count(
    scope: &mut Scope<'_>,
    my_pages: &[TransactionPage],
    counter: &mut dyn CandidateCounter,
    filter: &OwnershipFilter,
) -> Result<CounterStats, RecvFault> {
    let (p, me) = (scope.size(), scope.rank());
    debug_assert!(
        me == 0 || my_pages.is_empty(),
        "only the source holds pages"
    );
    let source_pages = (me == 0).then_some(my_pages.len() as u64);
    let num_pages = scope.try_broadcast(0, source_pages, 8)? as usize;
    let mut stats = CounterStats::default();
    for page_idx in 0..num_pages {
        let tag = TAG_DATA | (page_idx as u64) << 8;
        let page: TransactionPage = if me == 0 {
            my_pages[page_idx].clone()
        } else {
            scope.try_recv(me - 1, tag)?
        };
        let forward = (me + 1 < p).then(|| {
            let bytes = page_bytes(&page);
            scope.isend(me + 1, tag, page.clone(), bytes)
        });
        stats = stats.merged(&count_batch_charged(scope.comm(), counter, &page, filter));
        if let Some(sh) = forward {
            scope.wait_send(sh);
        }
    }
    Ok(stats)
}

/// Unwraps a receive that only an injected crash could fail, where the
/// plan injects none — the one place that says so.
pub(crate) fn cannot_fail<T>(received: Result<T, RecvFault>) -> T {
    received.unwrap_or_else(|fault| panic!("receive failed without a crashing fault plan: {fault}"))
}

/// The shared multi-pass driver: pass 1 then repeated candidate generation
/// → algorithm-specific counting, until a pass yields no frequent itemsets,
/// with `C_k` and `F_k` held once in the run's `share`. `count_pass` gets
/// the run's `C_k` and the committed `F_{k−1}`.
///
/// Under a crash-injecting fault plan each pass becomes an
/// attempt/sync/retry loop: a failed attempt floods abort notifications,
/// every member joins a two-round membership sync
/// ([`crate::recovery::pass_sync`]), committed deaths shrink the member
/// list and redistribute the dead rank's data
/// ([`crate::recovery::adopt`]), and only the interrupted pass is
/// re-executed — the committed `levels` are the checkpoint. Without
/// crashes in the plan the loop degenerates to exactly one attempt per
/// pass with no sync and epoch pinned at 0, leaving the virtual clocks of
/// fault-free runs bit-identical to the pre-recovery code.
///
/// Under [`PlacementPolicy::Adaptive`] every committed pass ends with a
/// capacity re-scoring ([`rebalance_placement`]); `mobile_pages` enables
/// the transaction re-slicing arm for formulations whose counting load
/// rides the local slice. Both move the one placement record, `holdings`.
/// A re-balance's fault fails the next attempt; a re-balance takes effect
/// only if that pass commits, so an abort first restores the last committed
/// placement on every survivor. One more sync settles the last re-balance.
///
/// `db` is the database slab and `cuts[r]..cuts[r + 1]` the range rank `r`
/// starts on: the stable storage recovery re-reads a dead rank's data from.
#[allow(clippy::too_many_arguments)] // internal: called from one place
pub(crate) fn run_rank(
    comm: &mut Comm,
    mut ctx: RankCtx,
    db: &TransactionPage,
    cuts: &[usize],
    share: &RunShare,
    params: &ParallelParams,
    mobile_pages: bool,
    mut count_pass: impl FnMut(
        &mut Comm,
        &RankCtx,
        &Candidates,
        &[(ItemSet, u64)],
    ) -> Result<PassResult, RecvFault>,
) -> RankOutput {
    let recoverable = comm.fault_plan().is_some_and(FaultPlan::has_crashes);
    let adaptive = params.placement == PlacementPolicy::Adaptive && ctx.size() > 1;
    let mut busy_mark = 0.0f64;
    let mut holdings = initial_holdings(cuts);
    // The last committed placement while the re-balance after it waits on
    // the next pass to commit; and that re-balance's fault.
    let mut committed: Option<(Vec<Vec<Holding>>, Vec<f64>)> = None;
    let mut rebalanced = Ok(());
    let mut levels: Vec<Level> = Vec::new();
    let mut passes = Vec::new();
    let mut k = 1;
    loop {
        let prev_level: &[(ItemSet, u64)] = levels.last().map_or(&[], |level| level);
        // C_k: the item universe for pass 1, generated thereafter.
        let candidates = if k == 1 {
            None
        } else {
            if prev_level.is_empty() || params.max_k.is_some_and(|m| k > m) {
                break;
            }
            let c = share.candidates(k, prev_level);
            if c.is_empty() {
                break;
            }
            Some(c)
        };
        let total = candidates
            .as_deref()
            .map_or(ctx.num_items as _, Candidates::len);
        let result = loop {
            comm.enter_pass(k);
            comm.set_epoch(ctx.epoch);
            let attempt =
                std::mem::replace(&mut rebalanced, Ok(())).and_then(|()| match &candidates {
                    None => parallel_pass1(comm, &ctx).map(|level| PassResult {
                        level,
                        stats: CounterStats::default(),
                        db_scans: 1,
                        grid: (1, ctx.size()),
                        candidate_imbalance: 0.0,
                        counted_candidates: None,
                    }),
                    Some(c) => count_pass(comm, &ctx, c, prev_level),
                });
            if !recoverable {
                // Single attempt, no sync, epoch stays 0.
                break cannot_fail(attempt);
            }
            let outcome = pass_sync(comm, &ctx, attempt.as_ref().err());
            if let Some(placement) = committed.take().filter(|_| outcome.any_abort) {
                (holdings, ctx.capacities) = placement;
                ctx.local = db.view_of(&holdings[comm.rank()]);
            }
            if !outcome.dead.is_empty() {
                crate::recovery::adopt(comm, &mut ctx, &mut holdings, db, &outcome.dead);
            }
            ctx.epoch += 1;
            match attempt {
                Ok(result) if !outcome.any_abort => break result,
                // Someone aborted: every member discards the attempt and
                // re-runs pass k under the (possibly shrunken) membership.
                _ => debug_assert!(outcome.any_abort, "a failed attempt floods its abort"),
            }
        };
        // The attempt is committed: keep its ledger. Pushing here — not
        // inside counting — keeps abandoned crash-recovery attempts out
        // of `passes`, and so out of the registry's counting series.
        passes.push(RankPass {
            k,
            candidates_total: total,
            counted_candidates: result.counted_candidates.unwrap_or(total),
            grid: result.grid,
            stats: result.stats,
            db_scans: result.db_scans,
            candidate_imbalance: result.candidate_imbalance,
            clock_end: comm.clock(),
        });
        levels.push(share.commit(k, result.level));
        if adaptive {
            committed = recoverable.then(|| (holdings.clone(), ctx.capacities.clone()));
            // Aborts of the next attempt fail this exchange's receives too.
            comm.set_epoch(ctx.epoch);
            rebalanced = rebalance_placement(
                comm,
                &mut ctx,
                &mut holdings,
                db,
                mobile_pages,
                &mut busy_mark,
            );
        }
        k += 1;
    }
    if recoverable && adaptive {
        pass_sync(comm, &ctx, rebalanced.as_ref().err());
    } else {
        cannot_fail(rebalanced);
    }
    RankOutput { levels, passes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armine_core::counter::CounterBackend;
    use armine_core::hashtree::HashTreeParams;

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    /// Pages are views: they cover the slice in order, cut where
    /// `chunks(page_size)` cuts, and point into the slab they were cut
    /// from — for a whole-slab slice and for a sub-view alike.
    #[test]
    fn paginate_views_cover_the_slab_in_chunk_order() {
        let slab = Arc::new((0..11).map(|i| tx(i, &[i as u32])).collect::<Vec<_>>());
        let whole = TransactionPage::from(Arc::clone(&slab));
        for (local, base) in [(whole.clone(), 0), (whole.slice(2..9), 2)] {
            for page_size in [0, 1, 3, 4, 7, 11, 50] {
                let pages = paginate(&local, page_size);
                let chunks: Vec<&[Transaction]> = local.chunks(page_size.max(1)).collect();
                assert_eq!(pages.len(), chunks.len(), "page_size={page_size}");
                let mut next = base;
                for (page, chunk) in pages.iter().zip(chunks) {
                    assert_eq!(&page[..], chunk);
                    // Same memory, not a copy: the view starts where the
                    // previous one ended, inside the slab.
                    assert!(std::ptr::eq(page.as_ptr(), slab[next..].as_ptr()));
                    next += page.len();
                }
                assert_eq!(next, base + local.len());
            }
        }
        // No transaction was cloned: every view shares the one slab.
        assert_eq!(Arc::strong_count(&slab), 2, "views dropped, slab shared");
    }

    /// Adaptive re-balancing on a two-speed cluster moves transactions in
    /// the model only: after every pass boundary each rank's slice is
    /// still a range of the one database slab, the ranges tile it in
    /// member order, and each holds exactly the transactions the
    /// capacity-proportional re-slicing of the global sequence assigns it,
    /// which is also what every rank's copy of the holdings records.
    #[test]
    fn rebalanced_slices_are_ranges_of_the_database_slab() {
        use armine_mpsim::{ClusterProfile, MachineProfile, Simulator};
        let (p, n) = (4, 103);
        let slab = Arc::new(
            (0..n as u64)
                .map(|i| tx(i, &[i as u32, 200]))
                .collect::<Vec<_>>(),
        );
        let db = TransactionPage::from(Arc::clone(&slab));
        let cuts: Vec<usize> = (0..=p).map(|i| i * n / p).collect();
        let two_speed = ClusterProfile::uniform(MachineProfile::cray_t3e()).speed(1, 0.5);
        let result = Simulator::new(p).cluster(two_speed).run(|comm| {
            let me = comm.rank();
            let mut ctx = RankCtx::new(db.slice(cuts[me]..cuts[me + 1]), 201, 1, 10, me, p);
            let mut holdings = initial_holdings(&cuts);
            let mut busy_mark = 0.0;
            let mut moved = 0u64;
            for _pass in 0..3 {
                // Counting work that rides the slice, as CD's does.
                comm.advance(ctx.local.len() as f64 * 1e-6);
                let before = comm.stats().bytes_sent;
                let rebalanced =
                    rebalance_placement(comm, &mut ctx, &mut holdings, &db, true, &mut busy_mark);
                cannot_fail(rebalanced);
                moved += comm.stats().bytes_sent - before;
            }
            (ctx.local, ctx.capacities, moved, holdings)
        });
        let capacities = &result.results[0].1;
        assert!(
            capacities[1] < 0.75,
            "the slow rank was re-scored: {capacities:?}"
        );
        let bounds = share_bounds(n, capacities);
        assert_ne!(bounds, cuts, "the re-balance must have moved something");
        let tiling = initial_holdings(&bounds);
        for (rank, (local, caps, moved, holdings)) in result.results.iter().enumerate() {
            assert_eq!(caps, capacities, "rank {rank}");
            assert_eq!(
                holdings, &tiling,
                "rank {rank}: the record is not the slices"
            );
            assert!(Arc::ptr_eq(&local.slab, &slab), "rank {rank} left the slab");
            // The cut points tile `0..n` in member order.
            assert_eq!(local.range, bounds[rank]..bounds[rank + 1], "rank {rank}");
            assert_eq!(&local[..], &slab[bounds[rank]..bounds[rank + 1]]);
            // The model still paid for the move: 16 allgather bytes to
            // each peer per boundary, and the page bytes on top.
            assert!(*moved > 3 * 3 * 16, "rank {rank} sent no segment: {moved}");
        }
    }

    #[test]
    fn paginate_empty() {
        assert!(paginate(&Vec::new().into(), 10).is_empty());
    }

    #[test]
    fn page_bytes_sums_wire_sizes() {
        let page = vec![tx(1, &[1, 2]), tx(2, &[3])];
        assert_eq!(page_bytes(&page), (12 + 8) + (12 + 4));
    }

    #[test]
    fn level_wire_size_counts_items_and_counts() {
        let level = vec![(ItemSet::from([1, 2]), 5u64), (ItemSet::from([3]), 2u64)];
        // 8 header + (8 + 8) + (4 + 8).
        assert_eq!(level_wire_size(&level), 8 + 16 + 12);
    }

    /// Skewed page counts, under each page movement: rank 0 holds four
    /// pages, rank 2 one and the others none (the chain's source holds all
    /// twelve transactions, in four pages). Every rank must see and count every transaction exactly once.
    /// The ring's members with fewer pages still *send* an empty
    /// placeholder every step (ring causality — each member's receive in
    /// step `s` matches its left neighbour's send in step `s`) but never
    /// count it; the all-to-all sends each page to every peer; the chain
    /// forwards each page down to the tail, which forwards none.
    #[test]
    fn ring_shift_counts_skewed_pages_once_per_rank() {
        use armine_mpsim::Simulator;
        let p = 4;
        for movement in [Movement::Ring, Movement::AllToAll, Movement::Chain] {
            let result = Simulator::new(p).run(|comm| {
                let local: Vec<Transaction> = match (comm.rank(), movement) {
                    (0, Movement::Chain) => (0..12).map(|i| tx(i, &[1, 2, 3])).collect(),
                    (0, _) => (0..10).map(|i| tx(i, &[1, 2, 3])).collect(),
                    (2, Movement::Ring | Movement::AllToAll) => {
                        (10..12).map(|i| tx(i, &[1, 2, 3])).collect()
                    }
                    _ => Vec::new(),
                };
                let pages = local.len().div_ceil(3) as u64;
                let mut counter = CounterBackend::HashTree.build(
                    2,
                    HashTreeParams::default(),
                    vec![ItemSet::from([1, 2]), ItemSet::from([1, 9])],
                );
                counter.reset_stats();
                let filter = OwnershipFilter::all();
                let stats = movement
                    .count(&mut comm.world(), &local.into(), 3, &mut *counter, &filter)
                    .expect("a fault-free movement cannot fail");
                (
                    counter.count_of(&ItemSet::from([1, 2])),
                    stats.transactions,
                    pages,
                )
            });
            for (rank, (count, seen, _)) in result.results.iter().enumerate() {
                assert_eq!(*count, Some(12), "{movement:?}: rank {rank} miscounted");
                assert_eq!(*seen, 12, "{movement:?}: rank {rank} saw a wrong total");
            }
            let msgs: Vec<u64> = result.ranks.iter().map(|r| r.messages_sent).collect();
            let pages: Vec<u64> = result.results.iter().map(|r| r.2).collect();
            let peers = p as u64 - 1;
            match movement {
                // One message per (page, step), empty or not — 4 pages × 3
                // steps — plus one all-gather contribution per peer round;
                // no rank may short-circuit.
                Movement::Ring => {
                    assert_eq!(msgs, vec![msgs[0]; p], "skew moved the ring's pattern");
                    assert_eq!(msgs[0], 4 * peers + peers, "ring sends missing");
                }
                Movement::AllToAll => {
                    for rank in 0..p {
                        let want = pages[rank] * peers + peers;
                        assert_eq!(msgs[rank], want, "all-to-all sends of rank {rank}");
                    }
                }
                // Every member but the tail forwards each of the source's
                // pages; the page-count broadcast sends fewer than that.
                Movement::Chain => {
                    let forwarded = |m: &u64| *m >= pages[0];
                    assert!(msgs[..p - 1].iter().all(forwarded), "chain sends: {msgs:?}");
                    assert!(
                        msgs[p - 1] < pages[0],
                        "the tail forwards no page: {msgs:?}"
                    );
                }
                Movement::Local => unreachable!("moves no page"),
            }
        }
    }

    #[test]
    fn merge_levels_sorts_disjoint_parts() {
        let a = vec![(ItemSet::from([2, 3]), 4u64)];
        let b = vec![(ItemSet::from([1, 2]), 7u64), (ItemSet::from([5, 6]), 1u64)];
        let merged = merge_levels(vec![a, b]);
        let sets: Vec<&ItemSet> = merged.iter().map(|(s, _)| s).collect();
        assert_eq!(
            sets,
            vec![
                &ItemSet::from([1, 2]),
                &ItemSet::from([2, 3]),
                &ItemSet::from([5, 6])
            ]
        );
    }
}
