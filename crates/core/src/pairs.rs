//! Direct pass-2 counting: one table probe per item pair, and no pair
//! stored.
//!
//! At `k = 2` a candidate is just a pair of items, so no search structure
//! is needed to find it. The counter's items — `F₁` when a miner builds it
//! from `C₂ = F₁ × F₁` and a share, the candidates' distinct items when it
//! is given rows — are *ranked* (ascending, so rank order is item order).
//! Only the items some candidate of the share uses get a rank lookup, and
//! each first-item rank keeps a *row*: the span `lo .. lo + len` of
//! second-item ranks its candidates cover. A row comes in one of two
//! kinds:
//!
//! - **Dense**: every pair in the span is a candidate, and their slots run
//!   on from `start` in rank order, so a probe's slot is
//!   `start + (rank − lo)`, with no memory per pair at all. Every row of
//!   CD's `C₂`, of a contiguous chunk of it, and of IDD's and HD's
//!   first-item shares is dense.
//! - **Sparse**: the span's cells, from `start` in one flat cell vector,
//!   hold each pair's slot or [`NONE`]. DD's round-robin shares, hash-owned
//!   and bucket-pruned candidates and split first items of a two-level
//!   partition have such rows.
//!
//! So the counter holds one count per candidate, one row per item, a rank
//! lookup and the cells of its sparse rows. Its candidates are read back
//! row by row ([`PairCounter::rows`]): a dense row is its span and a run of
//! slots, a sparse row its cells. That is how `frequent` decodes the
//! survivors and the hash tree's pass-2 shape counts its cells. Counting a
//! transaction ranks its items once
//! and then, for every item pair, does one subtraction, one compare and
//! (sparse rows) one cell load — against the trie's merge scan of a
//! several-hundred-entry child list per first item and the vertical
//! counter's bitmap AND per *candidate*.
//!
//! The counter is never named outside [`CounterBackend`], which builds it
//! at `k = 2` in place of the trie or the vertical counter, or under the
//! hash tree's shape (`hashtree::PairTree`, which counts through
//! [`PairCounter::probe`] and walks the shape for its ledger), from `F₁`
//! and a share ([`PairCounter::from_share`]) or from rows
//! ([`PairCounter::from_rows`], which ranks the rows' distinct items and
//! goes through the same constructor). Either way the pairs come strictly
//! ascending, the seam's one input contract, so a row's pairs take
//! consecutive slots in rank order and a row is dense exactly when its
//! span is full. Both decline when the rank lookup and the cells a row
//! layout without dense rows would need far outnumber the candidates.
//!
//! Ledger mapping onto [`CounterStats`], unchanged by the dense rows:
//! every item of a transaction with at least two items is one
//! `traversal_steps` unit when it is ranked, every probe that lands inside
//! a row's span is one more, and every increment is one
//! `distinct_leaf_visits` + one `candidate_checks` (a slot is reached by
//! exactly one pair, like a trie path). `intersection_words` stays zero.
//!
//! [`CounterBackend`]: crate::counter::CounterBackend
//! [`CounterStats`]: crate::counter::CounterStats

use crate::counter::{CandidateCounter, CandidateTable};
use crate::hashtree::OwnershipFilter;
use crate::item::{Item, ItemIndex};
use crate::itemset::ItemSet;
use crate::transaction::Transaction;
use std::ops::Range;

/// "No candidate" in `cells`, and a row with no pair's `lo`.
pub(crate) const NONE: u32 = u32::MAX;

/// The density fallback: above this many `u32` cells (rank lookup plus a
/// cell for every span position of every row) per candidate the counter
/// is declined. A full `F₁ × F₁` costs about one cell per candidate; a
/// hash-thinned `C₂` whose survivors are scattered over a huge universe
/// can cost thousands. Dense rows spare the cells but not the test, so
/// whether a counter is declined does not depend on them.
const MAX_CELLS_PER_CANDIDATE: usize = 8;

/// The span of second-item ranks one first item's candidates cover.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Smallest second-item rank.
    lo: u32,
    /// Number of ranks covered; zero when no candidate starts here.
    len: u32,
    /// Slot of the pair at `lo` (dense), or offset of the first cell.
    start: u32,
    /// Whether the span's pairs are all candidates, in consecutive slots.
    dense: bool,
}

/// The direct pair counter (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct PairCounter {
    /// Counts and ledger; no candidate rows (they are implicit).
    table: CandidateTable,
    /// Rank → item.
    items: Vec<Item>,
    /// Item id → rank, for the items some candidate uses.
    index: ItemIndex,
    /// One row per rank, indexed by first-item rank.
    rows: Vec<Row>,
    /// Candidate slot per (first, second) rank pair inside a sparse row.
    cells: Vec<u32>,
    /// A transaction's ranked items; sized once for the most it can hold.
    ranked: Vec<(Item, u32)>,
}

impl PairCounter {
    /// The counter of `rows`, pairs strided by 2 and strictly ascending
    /// (as a [`CandidateTable`] holds them), or `None` when it is declined
    /// (see [`MAX_CELLS_PER_CANDIDATE`]); the rows are only read. The rows'
    /// distinct items are ranked through an [`ItemIndex`].
    pub(crate) fn from_rows(rows: &[Item]) -> Option<PairCounter> {
        let (index, items) = ItemIndex::distinct(rows);
        let rank = |item: Item| index.rank(item).expect("a row's items are ranked");
        Self::from_share(&items, |emit| {
            for pair in rows.chunks_exact(2) {
                let second = rank(pair[1]);
                emit(rank(pair[0]), second..second + 1);
            }
        })
    }

    /// The counter of the pairs of `f1` that `runs` hands its `emit` — as
    /// `(first, seconds)`: every pair of the rank `first` with a rank of
    /// `seconds`, in ranks of `f1`, all strictly ascending — or `None` when
    /// it is declined. `runs` is called at most twice; nothing it emits is
    /// stored. A share that holds a first item's row whole emits it as one
    /// run, so laying it out costs one step, not one per pair.
    pub(crate) fn from_share(f1: &[Item], runs: impl Fn(Emit)) -> Option<PairCounter> {
        let layout = Layout::new(f1, runs)?;
        let table = CandidateTable::counts_only(2, layout.slots);
        Some(layout.into_counter(table, f1.to_vec()))
    }

    /// The slot of the pair of ranks `(first, second)`, if a candidate.
    fn slot(&self, first: u32, second: u32) -> Option<usize> {
        let row = self.rows[first as usize];
        let at = second.wrapping_sub(row.lo);
        if at >= row.len {
            return None;
        }
        let slot = if row.dense {
            row.start + at
        } else {
            self.cells[(row.start + at) as usize]
        };
        (slot != NONE).then_some(slot as usize)
    }

    /// Every row that holds a candidate, first rank ascending (so slot
    /// order): how the pairs are read back, by the hash tree's pass-2 shape
    /// and by [`frequent`](CandidateCounter::frequent).
    pub(crate) fn rows(&self) -> impl Iterator<Item = PairRow<'_>> + '_ {
        let rows = (0..).zip(&self.rows).filter(|(_, row)| row.len > 0);
        rows.map(|(first, row)| {
            let cells = (!row.dense).then(|| &self.cells[row.start as usize..][..row.len as usize]);
            // A sparse row's span starts and ends at a candidate.
            let ends = |cells: &[u32]| (cells[0], cells[cells.len() - 1]);
            let (lo, hi) = cells.map_or((row.start, row.start + row.len - 1), ends);
            let (seconds, slots) = (row.lo..row.lo + row.len, lo as usize..hi as usize + 1);
            PairRow {
                first,
                seconds,
                slots,
                cells,
            }
        })
    }

    /// The candidate of the ranks `(first, second)`.
    fn pair(&self, first: u32, second: u32) -> ItemSet {
        ItemSet::from_sorted(vec![
            self.items[first as usize],
            self.items[second as usize],
        ])
    }

    /// Counts the candidates `items` (sorted, at least two) holds under
    /// `filter`, leaving the ledger to the caller: ranks the items once,
    /// then probes every pair whose first item's row `filter` admits.
    #[inline]
    pub(crate) fn probe(&mut self, items: &[Item], filter: &OwnershipFilter) -> Probed {
        let PairCounter {
            table,
            index,
            rows,
            cells,
            ranked,
            ..
        } = self;
        ranked.clear();
        ranked.extend(
            items
                .iter()
                .filter_map(|&item| Some((item, index.rank(item)?))),
        );
        let mut probed = Probed {
            root_starts: 0,
            steps: 0,
            hits: 0,
        };
        for (i, &(first, rank)) in ranked.iter().enumerate() {
            let row = rows[rank as usize];
            let rest = &ranked[i + 1..];
            if row.len == 0 || rest.is_empty() || !filter.allows_root(first) {
                continue;
            }
            probed.root_starts += 1;
            let span = row.start as usize..(row.start + row.len) as usize;
            let (steps, hits) = if row.dense {
                let counts = &mut table.counts[span];
                count_dense_row(counts, row.lo, first, rest, filter)
            } else {
                let cells = &cells[span];
                count_sparse_row(cells, row.lo, first, rest, filter, &mut table.counts)
            };
            probed.steps += steps;
            probed.hits += hits;
        }
        probed
    }

    /// Rank → item: what the ranks of [`rows`](Self::rows) index.
    pub(crate) fn ranked_items(&self) -> &[Item] {
        &self.items
    }
}

/// One row of a pair counter, as [`PairCounter::rows`] lends it: the pairs
/// of rank `first` with the second-item ranks of `seconds` that it holds.
pub(crate) struct PairRow<'a> {
    pub(crate) first: u32,
    /// The row's span.
    pub(crate) seconds: Range<u32>,
    /// The row's slots, one per candidate: rows take consecutive slots.
    pub(crate) slots: Range<usize>,
    /// A sparse row's cells, each span position's slot or [`NONE`]; `None`
    /// for a dense row, whose span's pairs take its slots in order.
    pub(crate) cells: Option<&'a [u32]>,
}

/// The work of counting one transaction: first items whose row was
/// entered, probes that landed inside a row's span, and increments.
pub(crate) struct Probed {
    root_starts: u64,
    steps: u64,
    hits: u64,
}

/// What a pair counter's constructor hands its runs to: `(first, seconds)`,
/// the pairs of rank `first` with each rank of `seconds`.
pub(crate) type Emit<'a> = &'a mut dyn FnMut(u32, Range<u32>);

/// The rows a pair counter needs, worked out from its candidates' runs.
struct Layout {
    rows: Vec<Row>,
    cells: Vec<u32>,
    slots: usize,
    /// The rank of each used item.
    index: ItemIndex,
    /// How many ranks are used: the most one transaction can rank.
    most_ranked: usize,
}

impl Layout {
    /// Lays out the pairs `runs` emits (strictly ascending, ranks into
    /// `items`), or `None` when the density test declines them.
    fn new(items: &[Item], runs: impl Fn(Emit)) -> Option<Layout> {
        let empty = Row {
            lo: NONE,
            len: 0,
            start: 0,
            dense: true,
        };
        // First each row as (lo, one past hi, slot of the pair at lo): a
        // row's pairs come one after another, second ranks ascending. A
        // rank is used when it starts a pair or a run covers it: `covers`
        // counts the runs that start at a rank less those that end there.
        let mut rows = vec![empty; items.len()];
        let mut pairs_in = vec![0u32; items.len()];
        let mut firsts = vec![false; items.len()];
        let mut covers = vec![0i64; items.len() + 1];
        let mut slots = 0usize;
        runs(&mut |first, seconds| {
            let row = &mut rows[first as usize];
            if row.lo == NONE {
                row.lo = seconds.start;
                row.start = slots as u32;
            }
            row.len = seconds.end;
            pairs_in[first as usize] += seconds.len() as u32;
            firsts[first as usize] = true;
            covers[seconds.start as usize] += 1;
            covers[seconds.end as usize] -= 1;
            slots += seconds.len();
        });
        let mut covered = 0;
        let used: Vec<bool> = (covers.iter().zip(&firsts))
            .map(|(&runs, &first)| {
                covered += runs;
                first || covered > 0
            })
            .collect();

        // The density test, on the cells a layout of sparse rows over the
        // used ranks alone would take: the rank lookup plus every row's
        // span. Capped so that every cell offset and slot fits `u32`.
        let budget = (MAX_CELLS_PER_CANDIDATE * slots).min(NONE as usize);
        let universe = (0..items.len())
            .rfind(|&r| used[r])
            .map_or(0, |r| items[r].index() + 1);
        let mut used_below = Vec::with_capacity(items.len() + 1);
        used_below.push(0u32);
        for &u in &used {
            used_below.push(used_below[used_below.len() - 1] + u32::from(u));
        }
        let spans = rows.iter().filter(|row| row.len > 0);
        let sparse_cells: usize = spans
            .map(|row| (used_below[row.len as usize] - used_below[row.lo as usize]) as usize)
            .sum();
        if universe + sparse_cells > budget {
            return None;
        }

        // A row is dense if its span is full (its slots then run on from
        // `lo`'s); the cells of the others are laid out one after another.
        for (row, &pairs) in rows.iter_mut().zip(&pairs_in) {
            row.len = row.len.saturating_sub(row.lo);
            row.dense = pairs == row.len;
        }
        let mut num_cells = 0usize;
        for row in rows.iter_mut().filter(|row| !row.dense) {
            row.start = num_cells as u32;
            num_cells += row.len as usize;
        }
        let mut cells = vec![NONE; num_cells];
        if num_cells > 0 {
            let mut slot = 0u32;
            runs(&mut |first, seconds| {
                let row = rows[first as usize];
                for (second, at) in seconds.clone().zip(slot..) {
                    if !row.dense {
                        cells[(row.start + (second - row.lo)) as usize] = at;
                    }
                }
                slot += seconds.len() as u32;
            });
        }

        let ranked = items.iter().zip(0..).filter(|&(_, r)| used[r as usize]);
        Some(Layout {
            rows,
            cells,
            slots,
            index: ItemIndex::from_ranked(ranked.map(|(&item, rank)| (item, rank))),
            most_ranked: used_below[items.len()] as usize,
        })
    }

    fn into_counter(self, table: CandidateTable, items: Vec<Item>) -> PairCounter {
        debug_assert_eq!(table.len(), self.slots);
        PairCounter {
            table,
            items,
            index: self.index,
            rows: self.rows,
            cells: self.cells,
            ranked: Vec::with_capacity(self.most_ranked),
        }
    }
}

/// Counts the pairs `(first, second)` of one sparse row's `cells`,
/// starting at second-item rank `lo`, for every `second` in `rest`: the
/// probes that land in the row, and the hits. Out of line, with nothing
/// else live, so the loop keeps its values in registers.
#[inline(never)]
fn count_sparse_row(
    cells: &[u32],
    lo: u32,
    first: Item,
    rest: &[(Item, u32)],
    filter: &OwnershipFilter,
    counts: &mut [u64],
) -> (u64, u64) {
    let (mut steps, mut hits) = (0, 0);
    for &(second, rank) in rest {
        // Below `lo` wraps far above the row's length: one compare.
        let Some(&slot) = cells.get(rank.wrapping_sub(lo) as usize) else {
            continue;
        };
        steps += 1;
        if slot != NONE && filter.allows_second(first, second) {
            hits += 1;
            counts[slot as usize] += 1;
        }
    }
    (steps, hits)
}

/// [`count_sparse_row`] for a dense row: `counts` holds the slots of
/// second-item ranks `lo ..` directly.
#[inline(never)]
fn count_dense_row(
    counts: &mut [u64],
    lo: u32,
    first: Item,
    rest: &[(Item, u32)],
    filter: &OwnershipFilter,
) -> (u64, u64) {
    let (mut steps, mut hits) = (0, 0);
    for &(second, rank) in rest {
        let Some(count) = counts.get_mut(rank.wrapping_sub(lo) as usize) else {
            continue;
        };
        steps += 1;
        if filter.allows_second(first, second) {
            hits += 1;
            *count += 1;
        }
    }
    (steps, hits)
}

impl CandidateCounter for PairCounter {
    fn table(&self) -> &CandidateTable {
        &self.table
    }

    fn table_mut(&mut self) -> &mut CandidateTable {
        &mut self.table
    }

    /// The filter prunes first items per row and (first, second) pairs per
    /// candidate — the trie's depth-0 and depth-1 checks.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        if self.table.len() == 0 {
            return;
        }
        let mut stats = self.table.stats;
        let mut hits = 0u64;
        for t in transactions {
            stats.transactions += 1;
            let items = t.items();
            if items.len() < 2 {
                continue;
            }
            let probed = self.probe(items, filter);
            stats.root_starts += probed.root_starts;
            stats.traversal_steps += items.len() as u64 + probed.steps;
            hits += probed.hits;
        }
        stats.distinct_leaf_visits += hits;
        stats.candidate_checks += hits;
        self.table.stats = stats;
    }

    fn count_of(&self, set: &ItemSet) -> Option<u64> {
        let &[first, second] = set.items() else {
            return None;
        };
        let slot = self.slot(self.index.rank(first)?, self.index.rank(second)?)?;
        Some(self.table.counts[slot])
    }

    /// Decoded straight into the level row by row, a dense row by a scan of
    /// its span of counts. Rows and spans run in rank order, which is slot
    /// order, so the survivors are as many as the counts that pass.
    fn frequent(&self, min_count: u64) -> Vec<(ItemSet, u64)> {
        let counts = &self.table.counts;
        let mut level = Vec::with_capacity(counts.iter().filter(|&&n| n >= min_count).count());
        let mut keep = |first, second, n| {
            if n >= min_count {
                level.push((self.pair(first, second), n));
            }
        };
        for row in self.rows() {
            match row.cells {
                None => {
                    (row.seconds.zip(&counts[row.slots])).for_each(|(j, &n)| keep(row.first, j, n))
                }
                Some(cells) => (row.seconds.zip(cells).filter(|&(_, &slot)| slot != NONE))
                    .for_each(|(j, &slot)| keep(row.first, j, counts[slot as usize])),
            }
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    fn build(candidates: Vec<ItemSet>) -> Option<PairCounter> {
        PairCounter::from_rows(&CandidateTable::new(2, candidates).items)
    }

    // The pair table is the trie's pass 2 (and the vertical counter's).
    crate::counter::tests::run_on! { Trie:
        #[should_panic(expected = "wrong size")]
        arity_checked => wrong_size,
        empty_counter_counts_no_transactions => empty_and_short,
    }

    #[test]
    fn rows_are_spans_not_triangle_rows() {
        // Ranks: 1→0, 2→1, 5→2, 6→3, 7→4. Row 0 covers ranks 2..=4 only,
        // with a hole at {1, 6}: sparse, one cell per span position. Row 1
        // is the one pair {2, 6}: dense, no cell.
        let pc = build(vec![set(&[1, 5]), set(&[1, 7]), set(&[2, 6])]).unwrap();
        assert_eq!(pc.cells.len(), 3);
        assert_eq!(
            (pc.rows[0].lo, pc.rows[0].len, pc.rows[0].dense),
            (2, 3, false)
        );
        assert_eq!(
            (pc.rows[1].lo, pc.rows[1].len, pc.rows[1].dense),
            (3, 1, true)
        );
        assert_eq!(pc.rows[2].len, 0);
        // {1, 6} falls inside row 0's span but is no candidate.
        assert_eq!(pc.count_of(&set(&[1, 6])), None);
        assert_eq!(pc.count_of(&set(&[1, 2])), None);
        assert_eq!(pc.count_of(&set(&[1, 7])), Some(0));
        assert_eq!(pc.count_of(&set(&[2, 6])), Some(0));
    }

    /// All of `F₁ × F₁` takes no cell; with one pair taken out, only the
    /// row whose span it holed is sparse, and the slots still run in rank
    /// order.
    #[test]
    fn full_spans_in_slot_order_are_dense() {
        let all: Vec<ItemSet> = (0..6u32)
            .flat_map(|a| (a + 1..6).map(move |b| set(&[a, b])))
            .collect();
        let pc = build(all.clone()).unwrap();
        assert!(pc.cells.is_empty() && pc.rows[..5].iter().all(|row| row.dense));
        let mut holed = all;
        holed.retain(|s| *s != set(&[0, 2]));
        let mut pc = build(holed.clone()).unwrap();
        assert_eq!((pc.rows[0].dense, pc.rows[1].dense), (false, true));
        assert_eq!(pc.cells.len(), 5);
        pc.count_all(&[tx(0, &[0, 1, 2, 3, 4, 5])], &OwnershipFilter::all());
        assert_eq!(
            pc.frequent(1),
            holed.iter().map(|s| (s.clone(), 1)).collect::<Vec<_>>()
        );
    }

    /// A declined counter leaves the rows with their caller, which counts
    /// them with the backend's own structure.
    #[test]
    fn sparse_candidates_are_handed_back() {
        // One pair over a 1,001-item id space: 1,002 cells for 1 candidate.
        let sparse = CandidateTable::new(2, vec![set(&[3, 1000])]);
        assert!(PairCounter::from_rows(&sparse.items).is_none());
        assert_eq!(sparse.items, [Item(3), Item(1000)]);
        // Rows alone can exceed the budget too: the rank table fits it
        // (151 ≤ 8 · 200), but 50 first items each span 100 ranks for two
        // candidates.
        let wide: Vec<ItemSet> = (0..50u32)
            .flat_map(|a| [set(&[a, 50]), set(&[a, 149])])
            .chain((50..150u32).map(|b| set(&[b, b + 1])))
            .collect();
        assert_eq!(wide.len(), 200);
        assert!(build(wide).is_none());
    }
}
