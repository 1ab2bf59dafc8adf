//! Direct pass-2 counting: one table probe per item pair.
//!
//! At `k = 2` a candidate is just a pair of items, so no search structure
//! is needed to find it. The candidates' distinct items are *ranked*
//! (ascending, so rank order is item order), and each first-item rank
//! keeps a *row*: the span `lo .. lo + len` of second-item ranks its
//! candidates cover, laid out from `start` in one flat cell vector. A cell
//! holds the candidate's slot (its insertion index) or [`NONE`]. Counting
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
//! [`PairCounter::build`] hands the candidates back when the table would
//! be much larger than the candidate list.
//!
//! Ledger mapping onto [`CounterStats`]: every item of a transaction with
//! at least two items is one `traversal_steps` unit when it is ranked,
//! every probe that lands inside a row's span is one more, and every
//! increment is one `distinct_leaf_visits` + one `candidate_checks` (a
//! cell is reached by exactly one pair, like a trie path).
//! `intersection_words` stays zero and `inserts` counts the candidates
//! offered, duplicates included.
//!
//! [`CounterBackend::build`]: crate::counter::CounterBackend::build

use crate::counter::{CandidateCounter, CounterStats};
use crate::hashtree::OwnershipFilter;
use crate::item::Item;
use crate::itemset::ItemSet;
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
    /// Item id → rank among the candidates' distinct items, or [`NONE`].
    rank_of: Vec<u32>,
    /// One row per rank, indexed by first-item rank.
    rows: Vec<Row>,
    /// Candidate slot per (first, second) rank pair inside a row's span.
    cells: Vec<u32>,
    /// Distinct candidates in insertion order.
    candidates: Vec<ItemSet>,
    /// Accumulated counts, parallel to `candidates`.
    counts: Vec<u64>,
    stats: CounterStats,
}

impl PairCounter {
    /// Builds the table over size-2 candidates, or returns them untouched
    /// when it would need more than [`MAX_CELLS_PER_CANDIDATE`] cells per
    /// candidate. Duplicate candidates are idempotent (first occurrence
    /// keeps the slot).
    ///
    /// # Panics
    /// If any candidate's size differs from 2.
    pub(crate) fn build(candidates: Vec<ItemSet>) -> Result<PairCounter, Vec<ItemSet>> {
        for set in &candidates {
            assert_eq!(set.len(), 2, "candidate {set} has wrong size for k=2");
        }
        let offered = candidates.len();
        // Capped so that every cell offset and candidate slot fits `u32`.
        let budget = (MAX_CELLS_PER_CANDIDATE * offered).min(NONE as usize);
        let universe = candidates
            .iter()
            .map(|set| set.items()[1].index() + 1)
            .max()
            .unwrap_or(0);
        if universe > budget {
            return Err(candidates);
        }

        let mut rank_of = vec![NONE; universe];
        for set in &candidates {
            for item in set.items() {
                rank_of[item.index()] = 0;
            }
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
        let ranks = |set: &ItemSet| {
            let items = set.items();
            (rank_of[items[0].index()], rank_of[items[1].index()])
        };
        for set in &candidates {
            let (first, second) = ranks(set);
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
                return Err(candidates);
            }
        }

        let mut cells = vec![NONE; total - universe];
        let mut kept = Vec::with_capacity(offered);
        for set in candidates {
            let (first, second) = ranks(&set);
            let row = rows[first as usize];
            let cell = &mut cells[(row.start + (second - row.lo)) as usize];
            if *cell == NONE {
                *cell = kept.len() as u32;
                kept.push(set);
            }
        }
        Ok(PairCounter {
            rank_of,
            rows,
            cells,
            counts: vec![0; kept.len()],
            candidates: kept,
            stats: CounterStats {
                inserts: offered as u64,
                ..CounterStats::default()
            },
        })
    }

    fn rank(&self, item: Item) -> Option<u32> {
        self.rank_of
            .get(item.index())
            .copied()
            .filter(|&rank| rank != NONE)
    }
}

impl CandidateCounter for PairCounter {
    fn k(&self) -> usize {
        2
    }

    fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// The filter prunes first items per row and (first, second) pairs per
    /// occupied cell — the trie's depth-0 and depth-1 checks.
    fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        if self.candidates.is_empty() {
            return;
        }
        let mut stats = self.stats;
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
                for &(second, rank) in rest {
                    // Below `lo` wraps far above `len`: one compare.
                    let offset = rank.wrapping_sub(row.lo);
                    if offset >= row.len {
                        continue;
                    }
                    stats.traversal_steps += 1;
                    let slot = self.cells[(row.start + offset) as usize];
                    if slot != NONE && filter.allows_second(first, second) {
                        hits += 1;
                        self.counts[slot as usize] += 1;
                    }
                }
            }
        }
        stats.distinct_leaf_visits += hits;
        stats.candidate_checks += hits;
        self.stats = stats;
    }

    fn count_of(&self, set: &ItemSet) -> Option<u64> {
        let &[first, second] = set.items() else {
            return None;
        };
        let row = self.rows[self.rank(first)? as usize];
        let offset = self.rank(second)?.wrapping_sub(row.lo);
        if offset >= row.len {
            return None;
        }
        let slot = self.cells[(row.start + offset) as usize];
        (slot != NONE).then(|| self.counts[slot as usize])
    }

    fn count_vector(&self) -> Vec<u64> {
        self.counts.clone()
    }

    fn set_count_vector(&mut self, counts: &[u64]) {
        assert_eq!(
            counts.len(),
            self.counts.len(),
            "count vector length mismatch"
        );
        self.counts.copy_from_slice(counts);
    }

    fn frequent(&self, min_count: u64) -> Vec<(ItemSet, u64)> {
        self.candidates
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &count)| count >= min_count)
            .map(|(set, &count)| (set.clone(), count))
            .collect()
    }

    fn stats(&self) -> CounterStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CounterStats::default();
    }

    /// The same `|C| · (4k + 8)` accounting as every other backend.
    fn wire_size(&self) -> usize {
        self.candidates.len() * (4 * 2 + 8)
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

    #[test]
    fn rows_are_spans_not_triangle_rows() {
        // Ranks: 1→0, 2→1, 5→2, 6→3, 7→4. Row 0 covers ranks 2..=4 only.
        let pc = PairCounter::build(vec![set(&[1, 5]), set(&[1, 7]), set(&[2, 6])]).unwrap();
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
        assert_eq!(PairCounter::build(sparse.clone()).unwrap_err(), sparse);
        // Rows alone can exceed the budget too: the rank table fits it
        // (151 ≤ 8 · 200), but 50 first items each span 100 ranks for two
        // candidates.
        let wide: Vec<ItemSet> = (0..50u32)
            .flat_map(|a| [set(&[a, 50]), set(&[a, 149])])
            .chain((50..150u32).map(|b| set(&[b, b + 1])))
            .collect();
        assert_eq!(wide.len(), 200);
        assert!(PairCounter::build(wide).is_err());
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn arity_checked() {
        let _ = PairCounter::build(vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn empty_counter_counts_no_transactions() {
        let mut pc = PairCounter::build(Vec::new()).unwrap();
        pc.count_all(&[tx(0, &[1, 2, 3])], &OwnershipFilter::all());
        assert_eq!(pc.stats().transactions, 0);
        assert!(pc.is_empty());
    }
}
