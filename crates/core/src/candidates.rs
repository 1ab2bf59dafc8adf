//! One pass's candidate set `C_k`, as the miners hold it.
//!
//! From `k = 3` on, `C_k` is the arena candidate generation writes: its
//! rows strided by `k`, strictly ascending. At `k = 2` it is all of
//! `F₁ × F₁` (no pair of frequent items is pruned), so nothing but `F₁`
//! needs storing: its items ascending, plus the row at which each item's
//! pairs start. Row `offsets[i] + (j − i − 1)` is the pair `(F₁[i], F₁[j])`,
//! the same row candidate generation would have written it to.
//!
//! Both layouts answer the same three questions: how many rows, the rows
//! of a range (lent, a pair built on the fly), and which row holds a set.
//! The counters take a rank's share of the rows straight from here
//! ([`CounterBackend::build_share`]); at `k = 2` the trie and the vertical
//! backend then count through the pair table without a pair ever being
//! written down.
//!
//! [`CounterBackend::build_share`]: crate::counter::CounterBackend::build_share

use crate::apriori::candidate_arena;
use crate::item::Item;
use std::cmp::Ordering;
use std::ops::Range;

/// `C_k`: the candidates of one pass, rows ascending (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidates {
    k: usize,
    layout: Layout,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Layout {
    /// Rows strided by `k`.
    Arena(Vec<Item>),
    /// `F₁ × F₁`: `F₁`'s items ascending, and the row of each item's first
    /// pair.
    Pairs {
        items: Vec<Item>,
        offsets: Vec<usize>,
    },
}

/// One row of a [`Candidates`] set: lent from the arena, or a pair of `F₁`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row<'a> {
    /// A row of the arena.
    Arena(&'a [Item]),
    /// A pair of frequent items.
    Pair([Item; 2]),
}

impl AsRef<[Item]> for Row<'_> {
    fn as_ref(&self) -> &[Item] {
        match self {
            Row::Arena(row) => row,
            Row::Pair(pair) => pair,
        }
    }
}

impl Candidates {
    /// `C_k` generated from `prev`, the sorted `F_{k−1}` (rows read by
    /// `items`): `F₁ × F₁` at `k = 2`, the join + prune arena of
    /// `candidate_arena` after.
    ///
    /// # Panics
    /// If `k < 2`.
    pub fn generate<T>(k: usize, prev: &[T], items: impl Fn(&T) -> &[Item]) -> Candidates {
        assert!(k >= 2, "candidates are generated from pass 2 on");
        if k == 2 {
            Candidates::pairs(prev.iter().map(|set| items(set)[0]).collect())
        } else {
            let arena = candidate_arena(prev, items, |_| {});
            Candidates {
                k,
                layout: Layout::Arena(arena),
            }
        }
    }

    /// All pairs of `items`, which must be strictly ascending.
    pub fn pairs(items: Vec<Item>) -> Candidates {
        assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "F_1 must be strictly ascending"
        );
        let n = items.len();
        let mut offsets = Vec::with_capacity(n);
        let mut next = 0;
        for i in 0..n {
            offsets.push(next);
            next += n - 1 - i;
        }
        Candidates {
            k: 2,
            layout: Layout::Pairs { items, offsets },
        }
    }

    /// Adopts `items`, rows of `k` items strictly ascending, as the arena.
    ///
    /// # Panics
    /// If `k == 0`, or the rows are ragged or out of order.
    pub fn from_arena(k: usize, items: Vec<Item>) -> Candidates {
        assert!(k >= 1, "candidate size must be at least 1");
        assert_eq!(items.len() % k, 0, "arena is not strided by k={k}");
        let rows = || items.chunks_exact(k);
        let ascending = rows().zip(rows().skip(1)).all(|(a, b)| a < b);
        assert!(ascending, "arena candidates must be strictly ascending");
        Candidates {
            k,
            layout: Layout::Arena(items),
        }
    }

    /// The candidate size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        match &self.layout {
            Layout::Arena(items) => items.len() / self.k,
            Layout::Pairs { items, .. } => items.len() * items.len().saturating_sub(1) / 2,
        }
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `r`.
    ///
    /// # Panics
    /// If `r >= len()`.
    pub fn row(&self, r: usize) -> Row<'_> {
        self.rows(r..r + 1).next().expect("row out of range")
    }

    /// The rows of `range`, in order.
    ///
    /// # Panics
    /// If the range runs past `len()`.
    pub fn rows(&self, range: Range<usize>) -> Rows<'_> {
        assert!(range.start <= range.end && range.end <= self.len());
        let inner = match &self.layout {
            Layout::Arena(items) => RowsInner::Arena(
                items[range.start * self.k..range.end * self.k].chunks_exact(self.k),
            ),
            Layout::Pairs { items, .. } => RowsInner::Pairs(items, self.pair_ranks(range)),
        };
        Rows { inner }
    }

    /// The row holding `set`, if it is a candidate: a binary search of
    /// the arena, or of `F₁` twice and the triangular index.
    pub fn row_of(&self, set: &[Item]) -> Option<usize> {
        if set.len() != self.k {
            return None;
        }
        match &self.layout {
            Layout::Arena(items) => {
                let (mut lo, mut hi) = (0, self.len());
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    match items[mid * self.k..][..self.k].cmp(set) {
                        Ordering::Less => lo = mid + 1,
                        Ordering::Greater => hi = mid,
                        Ordering::Equal => return Some(mid),
                    }
                }
                None
            }
            Layout::Pairs { items, offsets } => {
                let i = items.binary_search(&set[0]).ok()?;
                let j = items.binary_search(&set[1]).ok()?;
                (i < j).then(|| offsets[i] + (j - i - 1))
            }
        }
    }

    /// `F₁`, when this is `F₁ × F₁`.
    pub(crate) fn pair_items(&self) -> Option<&[Item]> {
        match &self.layout {
            Layout::Pairs { items, .. } => Some(items),
            Layout::Arena(_) => None,
        }
    }

    /// The arena, when there is one; `F₁ × F₁` is handed back.
    pub(crate) fn into_arena(self) -> Result<Vec<Item>, Candidates> {
        match self.layout {
            Layout::Arena(items) => Ok(items),
            Layout::Pairs { .. } => Err(self),
        }
    }

    /// The rows of `range` of `F₁ × F₁` as `(row, i, j)`: the row and the
    /// ranks in `F₁` of its two items.
    ///
    /// # Panics
    /// If this is not `F₁ × F₁`.
    fn pair_ranks(&self, range: Range<usize>) -> PairRanks {
        let Layout::Pairs { items, offsets } = &self.layout else {
            panic!("not a pair set");
        };
        let n = items.len() as u32;
        // The last item whose pairs start at or before `range.start`.
        let i = offsets
            .partition_point(|&o| o <= range.start)
            .saturating_sub(1);
        let j = match offsets.get(i) {
            Some(&o) => i + 1 + (range.start - o),
            None => 0,
        };
        PairRanks {
            n,
            row: range.start,
            end: range.end,
            i: i as u32,
            j: j as u32,
        }
    }
    /// The rows of `range` of `F₁ × F₁` first item by first item, as
    /// `(row, i, js)`: the pairs of rank `i` with each rank of `js` (never
    /// empty), whose first is at `row`.
    ///
    /// # Panics
    /// If this is not `F₁ × F₁`.
    pub(crate) fn pair_rows(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (usize, u32, Range<u32>)> + '_ {
        let Layout::Pairs { items, offsets } = &self.layout else {
            panic!("not a pair set");
        };
        let n = items.len();
        let first = offsets
            .partition_point(|&o| o <= range.start)
            .saturating_sub(1);
        let rows = (first..n).map_while(move |i| {
            let (start, end) = (offsets[i], offsets[i] + (n - 1 - i));
            let (lo, hi) = (start.max(range.start), end.min(range.end));
            let js = (i + 1 + (lo - start)) as u32..(i + 1 + (hi.max(lo) - start)) as u32;
            (start < range.end).then_some((lo, i as u32, js))
        });
        rows.filter(|(_, _, js)| !js.is_empty())
    }
}

/// The rows of a range of a [`Candidates`] set ([`Candidates::rows`]).
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    inner: RowsInner<'a>,
}

#[derive(Debug, Clone)]
enum RowsInner<'a> {
    Arena(std::slice::ChunksExact<'a, Item>),
    Pairs(&'a [Item], PairRanks),
}

impl<'a> Iterator for Rows<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        match &mut self.inner {
            RowsInner::Arena(rows) => rows.next().map(Row::Arena),
            RowsInner::Pairs(items, ranks) => {
                let (_, i, j) = ranks.next()?;
                Some(Row::Pair([items[i as usize], items[j as usize]]))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            RowsInner::Arena(rows) => rows.size_hint(),
            RowsInner::Pairs(_, ranks) => ranks.size_hint(),
        }
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// `(row, i, j)` over a range of `F₁ × F₁` ([`Candidates::pair_ranks`]).
#[derive(Debug, Clone)]
pub(crate) struct PairRanks {
    n: u32,
    row: usize,
    end: usize,
    i: u32,
    j: u32,
}

impl Iterator for PairRanks {
    type Item = (usize, u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(usize, u32, u32)> {
        if self.row == self.end {
            return None;
        }
        let out = (self.row, self.i, self.j);
        self.row += 1;
        self.j += 1;
        if self.j == self.n {
            self.i += 1;
            self.j = self.i + 1;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.row;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::ItemSet;
    use crate::transaction::Transaction;

    fn items(ids: &[u32]) -> Vec<Item> {
        ids.iter().map(|&i| Item(i)).collect()
    }

    /// `F₁ × F₁` is the arena candidate generation writes from `F₁`, row
    /// for row, over every range, and `row_of` inverts `row`.
    #[test]
    fn pairs_are_the_generated_arena() {
        for n in 0..7u32 {
            let f1: Vec<ItemSet> = (0..n).map(|i| ItemSet::from([3 * i + 1])).collect();
            let implicit = Candidates::generate(2, &f1, ItemSet::items);
            let arena = candidate_arena(&f1, ItemSet::items, |_| {});
            let explicit = Candidates::from_arena(2, arena.clone());
            assert_eq!(implicit.len(), explicit.len(), "n={n}");
            assert!(implicit.pair_items().is_some() && explicit.pair_items().is_none());
            let len = implicit.len();
            for start in 0..=len {
                for end in start..=len {
                    let a: Vec<Row> = implicit.rows(start..end).collect();
                    let b: Vec<&[Item]> = arena[2 * start..2 * end].chunks_exact(2).collect();
                    let a: Vec<&[Item]> = a.iter().map(AsRef::as_ref).collect();
                    assert_eq!(a, b, "n={n} {start}..{end}");
                    assert_eq!(implicit.rows(start..end).len(), end - start);
                }
            }
            for r in 0..len {
                let row = implicit.row(r);
                assert_eq!(implicit.row_of(row.as_ref()), Some(r), "n={n}");
                assert_eq!(explicit.row_of(row.as_ref()), Some(r), "n={n}");
            }
            // Absent items, reversed pairs and wrong sizes hold no row.
            for set in [
                items(&[0, 1]),
                items(&[4, 1]),
                items(&[1]),
                items(&[1, 4, 7]),
            ] {
                assert_eq!(implicit.row_of(&set), None, "n={n} {set:?}");
                assert_eq!(explicit.row_of(&set), None, "n={n} {set:?}");
            }
        }
    }

    #[test]
    fn deeper_passes_keep_the_arena() {
        let f2: Vec<ItemSet> = [[1, 2], [1, 3], [2, 3], [2, 4]]
            .into_iter()
            .map(ItemSet::from)
            .collect();
        let c3 = Candidates::generate(3, &f2, ItemSet::items);
        assert_eq!((c3.k(), c3.len()), (3, 1));
        assert_eq!(c3.row(0), Row::Arena(&items(&[1, 2, 3])));
        assert_eq!(c3.into_arena(), Ok(items(&[1, 2, 3])));
        let empty = Candidates::generate(3, &[] as &[ItemSet], ItemSet::items);
        assert!(empty.is_empty() && empty.rows(0..0).next().is_none());
    }

    /// Every k-subset of a universe, thinned: the arena's binary search
    /// finds each kept set at its own row and nothing for a dropped one.
    #[test]
    fn arena_row_of_finds_exactly_the_kept_rows() {
        let universe = Transaction::new(0, (0..9).map(Item).collect());
        for k in 1..=4 {
            for thin in [1, 2, 3, 7] {
                let (mut arena, mut all) = (Vec::new(), Vec::new());
                universe.for_each_k_subset(k, |set| {
                    if all.len() % thin == 0 {
                        arena.extend_from_slice(set);
                    }
                    all.push(set.to_vec());
                });
                let kept = Candidates::from_arena(k, arena.clone());
                for set in &all {
                    let want = arena.chunks_exact(k).position(|row| row == &set[..]);
                    assert_eq!(kept.row_of(set), want, "k={k} thin={thin} {set:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_f1_refused() {
        let _ = Candidates::pairs(items(&[3, 1]));
    }
}
