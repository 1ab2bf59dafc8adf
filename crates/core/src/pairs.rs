//! Direct pass-2 counting: one table probe per item pair.
//!
//! At `k = 2` a candidate is just a pair of items, so no search structure
//! is needed to find it. The candidates' distinct items are *ranked*
//! (ascending, so rank order is item order), and each first-item rank
//! keeps a *row*: the span `lo .. lo + len` of second-item ranks its
//! candidates cover, laid out from `start` in one flat cell vector. A cell
//! holds the candidate's table slot or [`NONE`]. Counting
//! a transaction ranks its items once and then, for every item pair,
//! does one subtraction, one compare and one cell load — against the
//! trie's merge scan of a several-hundred-entry child list per first item
//! and the vertical counter's bitmap AND per *candidate*.
//!
//! Rows are spans, not full triangle rows, so a share of `C₂` costs only
//! the cells it covers: IDD's first-item partition has rows for owned
//! first items only, and a DD-style contiguous chunk starts its first row
//! at the chunk's first second item, not at `rank + 1`.
//!
//! The counter is never named outside [`CounterBackend::build`], which
//! builds it in place of the trie or the vertical counter at `k = 2`;
//! [`PairCounter::from_table`] hands the candidates back when the cells
//! would far outnumber them.
//!
//! Ledger mapping onto [`CounterStats`]: every item of a transaction with
//! at least two items is one `traversal_steps` unit when it is ranked,
//! every probe that lands inside a row's span is one more, and every
//! increment is one `distinct_leaf_visits` + one `candidate_checks` (a
//! cell is reached by exactly one pair, like a trie path).
//! `intersection_words` stays zero.
//!
//! [`CounterBackend::build`]: crate::counter::CounterBackend::build
//! [`CounterStats`]: crate::counter::CounterStats

use crate::counter::{CandidateCounter, CandidateTable};
use crate::hashtree::OwnershipFilter;
use crate::item::Item;
use crate::transaction::Transaction;

/// "No rank" in `rank_of`, "no candidate" in `cells`.
const NONE: u32 = u32::MAX;

/// The density fallback: above this many `u32` cells (rank table plus
/// rows) per candidate the table is declined. A full `F₁ × F₁` costs
/// about one cell per candidate; a hash-thinned `C₂` whose survivors are
/// scattered over a huge universe can cost thousands.
const MAX_CELLS_PER_CANDIDATE: usize = 8;

/// The span of second-item ranks one first item's candidates cover.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Smallest second-item rank.
    lo: u32,
    /// Number of ranks covered; zero when no candidate starts here.
    len: u32,
    /// Offset of the row's first cell.
    start: u32,
}

/// The direct pair counter (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct PairCounter {
    table: CandidateTable,
    /// Item id → rank among the candidates' distinct items, or [`NONE`].
    rank_of: Vec<u32>,
    /// One row per rank, indexed by first-item rank.
    rows: Vec<Row>,
    /// Candidate slot per (first, second) rank pair inside a row's span.
    cells: Vec<u32>,
}

impl PairCounter {
    /// Indexes a table of size-2 candidates, or returns it untouched when
    /// that would need more than [`MAX_CELLS_PER_CANDIDATE`] cells per
    /// candidate.
    // `Err` is the declined table handed back by move, not an error report.
    #[allow(clippy::result_large_err)]
    pub(crate) fn from_table(table: CandidateTable) -> Result<PairCounter, CandidateTable> {
        debug_assert_eq!(table.k, 2);
        // Capped so that every cell offset and candidate slot fits `u32`.
        let budget = (MAX_CELLS_PER_CANDIDATE * table.len()).min(NONE as usize);
        let pairs = || table.items.chunks_exact(2);
        let universe = pairs().map(|pair| pair[1].index() + 1).max().unwrap_or(0);
        if universe > budget {
            return Err(table);
        }

        let mut rank_of = vec![NONE; universe];
        for item in &table.items {
            rank_of[item.index()] = 0;
        }
        let mut num_ranks = 0u32;
        for rank in rank_of.iter_mut().filter(|rank| **rank != NONE) {
            *rank = num_ranks;
            num_ranks += 1;
        }

        // First as (lo, one past hi), then as (lo, len, start).
        let mut rows = vec![
            Row {
                lo: NONE,
                len: 0,
                start: 0,
            };
            num_ranks as usize
        ];
        let ranks = |pair: &[Item]| (rank_of[pair[0].index()], rank_of[pair[1].index()]);
        for pair in pairs() {
            let (first, second) = ranks(pair);
            let row = &mut rows[first as usize];
            row.lo = row.lo.min(second);
            row.len = row.len.max(second + 1);
        }
        let mut total = universe;
        for row in &mut rows {
            row.len = row.len.saturating_sub(row.lo);
            row.start = (total - universe) as u32;
            total += row.len as usize;
            if total > budget {
                return Err(table);
            }
        }

        let mut cells = vec![NONE; total - universe];
        for (slot, pair) in pairs().enumerate() {
            let (first, second) = ranks(pair);
            let row = rows[first as usize];
            cells[(row.start + (second - row.lo)) as usize] = slot as u32;
        }
        Ok(PairCounter {
            table,
            rank_of,
            rows,
            cells,
        })
    }

    fn rank(&self, item: Item) -> Option<u32> {
        self.rank_of
            .get(item.index())
            .copied()
            .filter(|&rank| rank != NONE)
    }
}

/// Counts the pairs `(first, second)` that one row's `cells`, starting at
/// second-item rank `lo`, hold for every `second` in `rest`: the probes
/// that land in the row, and the hits. Out of line, with nothing else live,
/// so the loop keeps its values in registers.
#[inline(never)]
fn count_row(
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

impl CandidateCounter for PairCounter {
    fn table(&self) -> &CandidateTable {
        &self.table
    }

    fn table_mut(&mut self) -> &mut CandidateTable {
        &mut self.table
    }

    /// The filter prunes first items per row and (first, second) pairs per
    /// occupied cell — the trie's depth-0 and depth-1 checks.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        if self.table.len() == 0 {
            return;
        }
        let mut stats = self.table.stats;
        let mut hits = 0u64;
        let mut ranked: Vec<(Item, u32)> = Vec::new();
        for t in transactions {
            stats.transactions += 1;
            let items = t.items();
            if items.len() < 2 {
                continue;
            }
            stats.traversal_steps += items.len() as u64;
            ranked.clear();
            ranked.extend(
                items
                    .iter()
                    .filter_map(|&item| Some((item, self.rank(item)?))),
            );
            for (i, &(first, rank)) in ranked.iter().enumerate() {
                let row = self.rows[rank as usize];
                let rest = &ranked[i + 1..];
                if row.len == 0 || rest.is_empty() || !filter.allows_root(first) {
                    continue;
                }
                stats.root_starts += 1;
                let cells = &self.cells[row.start as usize..][..row.len as usize];
                let (steps, row_hits) =
                    count_row(cells, row.lo, first, rest, filter, &mut self.table.counts);
                stats.traversal_steps += steps;
                hits += row_hits;
            }
        }
        stats.distinct_leaf_visits += hits;
        stats.candidate_checks += hits;
        self.table.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::ItemSet;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    fn build(candidates: Vec<ItemSet>) -> Option<PairCounter> {
        PairCounter::from_table(CandidateTable::new(2, candidates)).ok()
    }

    #[test]
    fn rows_are_spans_not_triangle_rows() {
        // Ranks: 1→0, 2→1, 5→2, 6→3, 7→4. Row 0 covers ranks 2..=4 only.
        let pc = build(vec![set(&[1, 5]), set(&[1, 7]), set(&[2, 6])]).unwrap();
        assert_eq!(pc.cells.len(), 3 + 1);
        assert_eq!((pc.rows[0].lo, pc.rows[0].len), (2, 3));
        assert_eq!((pc.rows[1].lo, pc.rows[1].len), (3, 1));
        assert_eq!(pc.rows[2].len, 0);
        // {1, 6} falls inside row 0's span but is no candidate.
        assert_eq!(pc.count_of(&set(&[1, 6])), None);
        assert_eq!(pc.count_of(&set(&[1, 2])), None);
        assert_eq!(pc.count_of(&set(&[1, 7])), Some(0));
    }

    #[test]
    fn sparse_candidates_are_handed_back() {
        // One pair over a 1,001-item id space: 1,002 cells for 1 candidate.
        let sparse = vec![set(&[3, 1000])];
        let handed_back = PairCounter::from_table(CandidateTable::new(2, sparse)).unwrap_err();
        assert_eq!(handed_back.items, [Item(3), Item(1000)]);
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

    #[test]
    #[should_panic(expected = "wrong size")]
    fn arity_checked() {
        let _ = build(vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn empty_counter_counts_no_transactions() {
        let mut pc = build(Vec::new()).unwrap();
        pc.count_all(&[tx(0, &[1, 2, 3])], &OwnershipFilter::all());
        assert_eq!(pc.stats().transactions, 0);
        assert!(pc.is_empty());
    }
}
