//! The serial Apriori algorithm (Figure 1 of the paper).
//!
//! Each pass `k` generates candidates `C_k` from `F_{k-1}` with the join +
//! prune of [`apriori_gen`] into the counter's arena, counts them with a
//! [`crate::hashtree::HashTree`], and keeps the candidates meeting minimum support. The
//! algorithm stops when a pass produces no frequent itemsets. Each pass
//! scans the database once; the memory-capped mode that partitions `C_k`
//! and rescans per partition (Figure 12) is CD's, in `armine-parallel`.

use crate::candidates::Candidates;
use crate::counter::{CandidateTable, CounterBackend, CounterStats};
use crate::hashtree::{HashTreeParams, OwnershipFilter};
use crate::item::Item;
use crate::itemset::ItemSet;
use crate::transaction::Transaction;

/// Minimum support, either as an absolute transaction count or as a
/// fraction of the database size (the paper quotes percentages: 0.1%,
/// 0.25%, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinSupport {
    /// Absolute: a candidate is frequent if its count is at least this.
    Count(u64),
    /// Relative: at least `fraction * N` transactions (rounded up, minimum 1).
    Fraction(f64),
}

impl MinSupport {
    /// Resolves to an absolute count for a database of `n` transactions.
    pub fn resolve(self, n: usize) -> u64 {
        match self {
            MinSupport::Count(c) => c,
            MinSupport::Fraction(f) => {
                assert!(
                    (0.0..=1.0).contains(&f),
                    "support fraction out of range: {f}"
                );
                ((f * n as f64).ceil() as u64).max(1)
            }
        }
    }
}

/// Tunables for a mining run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AprioriParams {
    /// Minimum support threshold.
    pub min_support: MinSupport,
    /// Hash-tree shape (fan-out and leaf capacity; by default the fan-out
    /// is sized per pass from `|C_k|`). Ignored by the other backends.
    pub tree: HashTreeParams,
    /// Which counting structure counts the candidates of each pass.
    pub counter: CounterBackend,
    /// Stop after this pass even if larger frequent itemsets exist.
    pub max_k: Option<usize>,
}

impl AprioriParams {
    /// Params with an absolute minimum support count and defaults otherwise.
    pub fn with_min_support_count(count: u64) -> Self {
        AprioriParams {
            min_support: MinSupport::Count(count),
            tree: HashTreeParams::default(),
            counter: CounterBackend::default(),
            max_k: None,
        }
    }

    /// Params with a fractional minimum support and defaults otherwise.
    pub fn with_min_support(fraction: f64) -> Self {
        AprioriParams {
            min_support: MinSupport::Fraction(fraction),
            tree: HashTreeParams::default(),
            counter: CounterBackend::default(),
            max_k: None,
        }
    }

    /// Sets the hash-tree shape.
    pub fn tree(mut self, tree: HashTreeParams) -> Self {
        self.tree = tree;
        self
    }

    /// Selects the candidate-counting backend.
    pub fn counter(mut self, counter: CounterBackend) -> Self {
        self.counter = counter;
        self
    }

    /// Caps the maximum itemset size mined.
    pub fn max_k(mut self, k: usize) -> Self {
        self.max_k = Some(k);
        self
    }
}

/// All frequent itemsets discovered by a run: the `∪ F_k` of Figure 1.
#[derive(Debug, Clone, Default)]
pub struct FrequentItemsets {
    /// `levels[k-1]` holds `F_k` in lexicographic order with counts.
    levels: Vec<Vec<(ItemSet, u64)>>,
    num_transactions: u64,
}

impl FrequentItemsets {
    /// Assembles a result from per-level `(itemset, count)` lists; level
    /// `i` of the input holds `F_{i+1}`: sets of `i + 1` items, strictly
    /// ascending, as the lookups' binary search needs (checked in debug
    /// builds). Used by the parallel drivers, which discover the levels
    /// pass by pass.
    pub fn from_levels(levels: Vec<Vec<(ItemSet, u64)>>, num_transactions: u64) -> Self {
        debug_assert!(
            levels.iter().enumerate().all(|(i, level)| {
                let ascending = level.windows(2).all(|w| w[0].0 < w[1].0);
                ascending && level.iter().all(|(set, _)| set.len() == i + 1)
            }),
            "F_k must hold k-sets in strictly ascending order"
        );
        FrequentItemsets {
            levels,
            num_transactions,
        }
    }

    /// `F_k`, lexicographically ordered. Empty slice if the run never
    /// reached (or found nothing at) size `k`.
    pub fn level(&self, k: usize) -> &[(ItemSet, u64)] {
        if k == 0 || k > self.levels.len() {
            return &[];
        }
        &self.levels[k - 1]
    }

    /// Largest `k` with a non-empty `F_k`.
    pub fn max_len(&self) -> usize {
        self.levels
            .iter()
            .rposition(|l| !l.is_empty())
            .map_or(0, |i| i + 1)
    }

    /// The support count of a frequent itemset, `None` if not frequent.
    pub fn support(&self, set: &ItemSet) -> Option<u64> {
        self.support_of(set.items())
    }

    /// The support count of the itemset with these strictly ascending
    /// items, `None` if not frequent: a binary search in
    /// `F_{items.len()}`, with no `ItemSet` built to ask.
    fn support_of(&self, items: &[Item]) -> Option<u64> {
        Some(self.level(items.len())[self.position(items)?].1)
    }

    /// Where the itemset with these items sits in its level, if frequent.
    pub(crate) fn position(&self, items: &[Item]) -> Option<usize> {
        let by_items = |(set, _): &(ItemSet, u64)| set.items().cmp(items);
        self.level(items.len()).binary_search_by(by_items).ok()
    }

    /// Whether `set` is frequent.
    pub fn contains(&self, set: &ItemSet) -> bool {
        self.position(set.items()).is_some()
    }

    /// Total number of frequent itemsets across all sizes.
    pub fn len(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Whether nothing is frequent.
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(Vec::is_empty)
    }

    /// Iterates all `(itemset, count)` pairs, smallest sizes first.
    pub fn iter(&self) -> impl Iterator<Item = (&ItemSet, u64)> + '_ {
        self.levels
            .iter()
            .flat_map(|l| l.iter().map(|(s, c)| (s, *c)))
    }

    /// The number of transactions the run mined (for relative support).
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }
}

/// Per-pass accounting of a mining run.
#[derive(Debug, Clone, Default)]
pub struct PassInfo {
    /// Pass number `k`.
    pub k: usize,
    /// `|C_k|` — candidates generated.
    pub candidates: usize,
    /// `|F_k|` — candidates that met minimum support.
    pub frequent: usize,
    /// Database scans this pass: 1, as the serial miner counts each pass
    /// in one scan.
    pub db_scans: usize,
    /// Counting-structure work counters of the pass.
    pub tree_stats: CounterStats,
}

/// The result of a mining run: frequent itemsets plus per-pass accounting.
#[derive(Debug, Clone, Default)]
pub struct MiningRun {
    /// The discovered frequent itemsets.
    pub frequent: FrequentItemsets,
    /// One entry per executed pass, starting at `k = 1`.
    pub passes: Vec<PassInfo>,
    /// The resolved absolute minimum support count.
    pub min_count: u64,
}

impl MiningRun {
    /// Convenience passthrough: the support count of a frequent itemset.
    pub fn support(&self, set: &ItemSet) -> Option<u64> {
        self.frequent.support(set)
    }
}

/// The serial Apriori miner.
///
/// ```
/// use armine_core::apriori::{Apriori, AprioriParams};
/// use armine_core::{Transaction, Item, ItemSet};
///
/// let db = vec![
///     Transaction::new(1, vec![Item(0), Item(1)]),
///     Transaction::new(2, vec![Item(0), Item(1), Item(2)]),
///     Transaction::new(3, vec![Item(1), Item(2)]),
/// ];
/// let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(&db);
/// assert_eq!(run.support(&ItemSet::from([0, 1])), Some(2));
/// assert_eq!(run.frequent.max_len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Apriori {
    params: AprioriParams,
}

impl Apriori {
    /// A miner with the given parameters.
    pub fn new(params: AprioriParams) -> Self {
        Apriori { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &AprioriParams {
        &self.params
    }

    /// Mines all frequent itemsets of `transactions`.
    pub fn mine(&self, transactions: &[Transaction]) -> MiningRun {
        let min_count = self.params.min_support.resolve(transactions.len());
        let mut run = MiningRun {
            min_count,
            ..Default::default()
        };
        run.frequent.num_transactions = transactions.len() as u64;

        // Pass 1: direct per-item counting (no tree needed).
        let f1 = frequent_singletons(transactions, min_count);
        run.passes.push(PassInfo {
            k: 1,
            candidates: f1.candidates,
            frequent: f1.frequent.len(),
            db_scans: 1,
            tree_stats: CounterStats::default(),
        });
        run.frequent.levels.push(f1.frequent);

        let mut k = 2;
        while self.params.max_k.is_none_or(|m| k <= m) {
            let candidates = Candidates::generate(k, run.frequent.level(k - 1), |(s, _)| s.items());
            if candidates.is_empty() {
                break;
            }
            let (level, info) = count_candidates(
                candidates,
                transactions,
                min_count,
                self.params.counter,
                self.params.tree,
            );
            run.passes.push(info);
            run.frequent.levels.push(level);
            k += 1;
        }
        run
    }
}

struct Pass1 {
    candidates: usize,
    frequent: Vec<(ItemSet, u64)>,
}

/// Pass 1: count every item and keep those meeting minimum support.
fn frequent_singletons(transactions: &[Transaction], min_count: u64) -> Pass1 {
    let num_items = transactions
        .iter()
        .filter_map(|t| t.items().last())
        .map(|i| i.id() + 1)
        .max()
        .unwrap_or(0) as usize;
    let mut counts = vec![0u64; num_items];
    for t in transactions {
        for item in t.items() {
            counts[item.index()] += 1;
        }
    }
    let candidates = counts.iter().filter(|&&c| c > 0).count();
    let frequent = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= min_count)
        .map(|(id, &c)| (ItemSet::singleton(Item(id as u32)), c))
        .collect();
    Pass1 {
        candidates,
        frequent,
    }
}

/// Counts `candidates` over `transactions` with the selected
/// [`CounterBackend`] in one database scan: an arena is adopted by the
/// counter's table without a copy, and `F₁ × F₁` is read in place. Returns
/// the frequent level and the pass accounting; an empty candidate set
/// scans the database zero times.
pub(crate) fn count_candidates(
    candidates: Candidates,
    transactions: &[Transaction],
    min_count: u64,
    backend: CounterBackend,
    tree_params: HashTreeParams,
) -> (Vec<(ItemSet, u64)>, PassInfo) {
    let (k, total) = (candidates.k(), candidates.len());
    if total == 0 {
        return (
            Vec::new(),
            PassInfo {
                k,
                ..PassInfo::default()
            },
        );
    }
    let mut counter = match candidates.into_arena() {
        Ok(arena) => backend.index(tree_params, CandidateTable::from_arena(k, arena)),
        Err(pairs) => {
            let all = OwnershipFilter::all();
            backend.build_share(tree_params, &pairs, 0..total, all)
        }
    };
    counter.count_all(transactions, &OwnershipFilter::all());
    let level = counter.frequent(min_count);
    let info = PassInfo {
        k,
        candidates: total,
        frequent: level.len(),
        db_scans: 1,
        tree_stats: counter.stats(),
    };
    (level, info)
}

/// `apriori_gen(F_{k-1})`: the join + prune candidate generation of the
/// Apriori algorithm.
///
/// `prev` must be the lexicographically sorted `F_{k-1}`. Two itemsets
/// sharing their first `k-2` items join into a `k`-candidate; the candidate
/// survives only if **all** of its `k-1`-subsets are in `prev` (the
/// anti-monotonicity prune). The output is lexicographically sorted, so
/// candidate *indices* mean the same candidate on every processor and CD's
/// count reduction can sum plain vectors. (The miners write the same rows
/// straight into one arena with `candidate_arena` instead of boxing them.)
pub fn apriori_gen(prev: &[ItemSet]) -> Vec<ItemSet> {
    let mut sets = Vec::new();
    candidate_arena(prev, ItemSet::items, |row| {
        sets.push(ItemSet::from_sorted(row.split_off(0)))
    });
    sets
}

/// The join + prune of [`apriori_gen`] over the sorted `F_{k-1}` (rows read
/// by `items`), writing `C_k` ascending into one arena strided by `k`: each
/// join goes to the tail, is pruned there and is truncated if it fails.
/// `keep` sees the arena after each survivor (its last `k` items), and may
/// take it or truncate that row away.
pub(crate) fn candidate_arena<T>(
    prev: &[T],
    items: impl Fn(&T) -> &[Item],
    mut keep: impl FnMut(&mut Vec<Item>),
) -> Vec<Item> {
    debug_assert!(
        prev.windows(2).all(|w| items(&w[0]) < items(&w[1])),
        "F_(k-1) must be sorted"
    );
    let Some(k_minus_1) = prev.first().map(|s| items(s).len()) else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(k_minus_1 + 1);
    debug_assert!(prev.iter().all(|s| items(s).len() == k_minus_1));
    let mut i = 0;
    while i < prev.len() {
        // The block [i, block_end) shares the same (k-2)-item prefix.
        let prefix = &items(&prev[i])[..k_minus_1 - 1];
        let mut block_end = i + 1;
        while block_end < prev.len() && &items(&prev[block_end])[..k_minus_1 - 1] == prefix {
            block_end += 1;
        }
        for a in i..block_end {
            for b in a + 1..block_end {
                let at = out.len();
                out.extend_from_slice(items(&prev[a]));
                out.push(items(&prev[b])[k_minus_1 - 1]);
                let candidate = &out[at..];
                // Prune: every (k-1)-subset must be frequent. Dropping one
                // of the last two items gives prev[b] and prev[a]; each
                // other subset is looked up in the sorted `prev`, compared
                // in place against the candidate minus item `dropped`.
                let ok = (0..k_minus_1 - 1).all(|dropped| {
                    let (head, tail) = (&candidate[..dropped], &candidate[dropped + 1..]);
                    let subset = |s: &T| {
                        let (s_head, s_tail) = items(s).split_at(dropped);
                        s_head.cmp(head).then_with(|| s_tail.cmp(tail))
                    };
                    prev.binary_search_by(subset).is_ok()
                });
                if ok {
                    keep(&mut out)
                } else {
                    out.truncate(at)
                }
            }
        }
        i = block_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::transaction::k_subsets;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    fn table1() -> Dataset {
        Dataset::from_named_transactions(&[
            &["Bread", "Coke", "Milk"],
            &["Beer", "Bread"],
            &["Beer", "Coke", "Diaper", "Milk"],
            &["Beer", "Bread", "Diaper", "Milk"],
            &["Coke", "Diaper", "Milk"],
        ])
    }

    /// Brute-force frequent itemset miner for cross-checking (all sizes).
    fn brute_force(transactions: &[Transaction], min_count: u64) -> HashMap<ItemSet, u64> {
        let mut items: Vec<Item> = transactions
            .iter()
            .flat_map(|t| t.items().iter().copied())
            .collect();
        items.sort_unstable();
        items.dedup();
        let n = items.len();
        assert!(n <= 20, "brute force bound");
        let mut out = HashMap::new();
        for mask in 1u32..(1u32 << n) {
            let subset: Vec<Item> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| items[i])
                .collect();
            let s = ItemSet::from_sorted(subset);
            let count = transactions.iter().filter(|t| t.contains_set(&s)).count() as u64;
            if count >= min_count {
                out.insert(s, count);
            }
        }
        out
    }

    #[test]
    fn min_support_resolution() {
        assert_eq!(MinSupport::Count(7).resolve(100), 7);
        assert_eq!(MinSupport::Fraction(0.1).resolve(100), 10);
        assert_eq!(MinSupport::Fraction(0.101).resolve(100), 11, "rounds up");
        assert_eq!(MinSupport::Fraction(0.0).resolve(100), 1, "never zero");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn min_support_fraction_validated() {
        MinSupport::Fraction(1.5).resolve(10);
    }

    #[test]
    fn apriori_gen_joins_and_prunes() {
        // Example from Agrawal & Srikant: F_3 = {123, 124, 134, 135, 234}
        // joins to {1234, 1345}; {1345} is pruned because {145} ∉ F_3.
        let f3 = vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 4]),
            set(&[1, 3, 4]),
            set(&[1, 3, 5]),
            set(&[2, 3, 4]),
        ];
        assert_eq!(apriori_gen(&f3), vec![set(&[1, 2, 3, 4])]);
    }

    #[test]
    fn apriori_gen_from_singletons() {
        let f1 = vec![set(&[1]), set(&[3]), set(&[7])];
        assert_eq!(
            apriori_gen(&f1),
            vec![set(&[1, 3]), set(&[1, 7]), set(&[3, 7])]
        );
    }

    #[test]
    fn apriori_gen_empty_input() {
        assert!(apriori_gen(&[]).is_empty());
        assert!(
            apriori_gen(&[set(&[5])]).is_empty(),
            "single set joins nothing"
        );
    }

    #[test]
    fn apriori_gen_matches_brute_force_definition() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            // Random F_2.
            let mut f2: Vec<ItemSet> = (0..25)
                .filter_map(|_| {
                    let a = rng.gen_range(0..8u32);
                    let b = rng.gen_range(0..8u32);
                    (a != b).then(|| set(&[a.min(b), a.max(b)]))
                })
                .collect();
            f2.sort();
            f2.dedup();
            let got = apriori_gen(&f2);
            // Brute force definition: every 3-set whose 2-subsets are all in F_2.
            let in_f2: HashSet<&ItemSet> = f2.iter().collect();
            let mut want = Vec::new();
            for a in 0..8u32 {
                for b in a + 1..8 {
                    for c in b + 1..8 {
                        let cand = set(&[a, b, c]);
                        if cand.subsets_dropping_one().all(|s| in_f2.contains(&s)) {
                            want.push(cand);
                        }
                    }
                }
            }
            assert_eq!(got, want);
        }
    }

    /// A join that only a middle subset prunes: 123 and 124 join, 234 is
    /// there, 134 is not.
    #[test]
    fn apriori_gen_prunes_on_a_subset_that_is_neither_parent() {
        let f3 = [set(&[1, 2, 3]), set(&[1, 2, 4]), set(&[2, 3, 4])];
        assert!(apriori_gen(&f3).is_empty());
        let f3 = [&f3[..2], &[set(&[1, 3, 4]), set(&[2, 3, 4])]].concat();
        assert_eq!(apriori_gen(&f3), [set(&[1, 2, 3, 4])]);
    }

    proptest::proptest! {
        // Any sorted F_(k-1) over seven items, k-1 from 1 to 5, from one
        // set in twenty kept (blocks of one) to all of them (at k-1 = 1,
        // one block): exactly the k-sets whose every (k-1)-subset is there,
        // as the arena's rows (read from sets or from a committed level)
        // and as `apriori_gen`'s boxes.
        #[test]
        fn apriori_gen_is_the_definition_at_every_depth(
            size in 1usize..=5,
            density in 1u8..=20,
            lots in proptest::collection::vec(0u8..20, 35),
        ) {
            let universe = Transaction::new(0, (0..7).map(Item).collect());
            let all = k_subsets(&universe, size);
            let kept = all.into_iter().zip(&lots).filter(|(_, &lot)| lot < density);
            let prev: Vec<ItemSet> = kept.map(|(s, _)| s).collect();
            let in_prev: HashSet<&ItemSet> = prev.iter().collect();
            let mut want = k_subsets(&universe, size + 1);
            want.retain(|c| c.subsets_dropping_one().all(|s| in_prev.contains(&s)));
            let want_rows: Vec<Item> = want.iter().flat_map(ItemSet::items).copied().collect();
            let arena = candidate_arena(&prev, ItemSet::items, |_| {});
            proptest::prop_assert_eq!(arena, want_rows.clone());
            let level: Vec<(ItemSet, u64)> = prev.iter().map(|s| (s.clone(), 1)).collect();
            let arena = candidate_arena(&level, |(s, _)| s.items(), |_| {});
            proptest::prop_assert_eq!(arena, want_rows);
            proptest::prop_assert_eq!(apriori_gen(&prev), want);
        }
    }

    #[test]
    fn table1_mining_matches_section_2() {
        let d = table1();
        let run = Apriori::new(AprioriParams::with_min_support_count(3)).mine(d.transactions());
        // σ(Diaper, Milk)=3 — frequent at min count 3.
        let dm = d.itemset(&["Diaper", "Milk"]).unwrap();
        assert_eq!(run.support(&dm), Some(3));
        // σ(Diaper, Milk, Beer)=2 — not frequent.
        let dmb = d.itemset(&["Diaper", "Milk", "Beer"]).unwrap();
        assert_eq!(run.support(&dmb), None);
    }

    #[test]
    fn mining_matches_brute_force() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..10u64 {
            let transactions: Vec<Transaction> = (0..40)
                .map(|tid| {
                    let len = rng.gen_range(1..=8);
                    let items: Vec<Item> = (0..len).map(|_| Item(rng.gen_range(0..12))).collect();
                    Transaction::new(tid, items)
                })
                .collect();
            let min_count = 2 + trial % 4;
            let run =
                Apriori::new(AprioriParams::with_min_support_count(min_count)).mine(&transactions);
            let expected = brute_force(&transactions, min_count);
            let got: HashMap<ItemSet, u64> =
                run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn max_k_stops_early() {
        let d = table1();
        let run =
            Apriori::new(AprioriParams::with_min_support_count(1).max_k(2)).mine(d.transactions());
        assert!(run.frequent.max_len() <= 2);
        assert!(run.passes.len() <= 2);
    }

    #[test]
    fn pass_info_records_candidate_counts() {
        let d = table1();
        let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(d.transactions());
        assert_eq!(run.passes[0].k, 1);
        assert_eq!(run.passes[0].candidates, 5, "five distinct items");
        for (i, p) in run.passes.iter().enumerate() {
            assert_eq!(p.k, i + 1);
            assert!(p.frequent <= p.candidates);
            assert!(p.db_scans >= 1);
        }
    }

    #[test]
    fn empty_database() {
        let run = Apriori::new(AprioriParams::with_min_support_count(1)).mine(&[]);
        assert!(run.frequent.is_empty());
        assert_eq!(run.frequent.max_len(), 0);
    }

    #[test]
    fn zero_candidates_report_zero_db_scans() {
        let d = table1();
        let (level, info) = count_candidates(
            Candidates::pairs(Vec::new()),
            d.transactions(),
            1,
            CounterBackend::default(),
            HashTreeParams::default(),
        );
        assert!(level.is_empty());
        assert_eq!(info.candidates, 0);
        assert_eq!(info.db_scans, 0, "no candidates means no scan ran");
    }

    #[test]
    fn trie_backend_mines_identical_lattice() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let transactions: Vec<Transaction> = (0..80)
            .map(|tid| {
                let len = rng.gen_range(2..=10);
                let items: Vec<Item> = (0..len).map(|_| Item(rng.gen_range(0..18))).collect();
                Transaction::new(tid, items)
            })
            .collect();
        let base = AprioriParams::with_min_support_count(4);
        let tree_run = Apriori::new(base).mine(&transactions);
        let trie_run = Apriori::new(base.counter(CounterBackend::Trie)).mine(&transactions);
        let a: Vec<_> = tree_run.frequent.iter().collect();
        let b: Vec<_> = trie_run.frequent.iter().collect();
        assert_eq!(a, b);
        // Per-pass bookkeeping (candidates, frequent, scans) also agrees.
        for (x, y) in tree_run.passes.iter().zip(&trie_run.passes) {
            assert_eq!(
                (x.k, x.candidates, x.frequent, x.db_scans),
                (y.k, y.candidates, y.frequent, y.db_scans)
            );
        }
    }

    #[test]
    fn fractional_support_on_table1() {
        let d = table1();
        // 60% of 5 transactions = 3.
        let run = Apriori::new(AprioriParams::with_min_support(0.6)).mine(d.transactions());
        assert_eq!(run.min_count, 3);
        let dm = d.itemset(&["Diaper", "Milk"]).unwrap();
        assert_eq!(run.frequent.support(&dm), Some(3));
    }

    #[test]
    fn frequent_itemsets_level_access() {
        let d = table1();
        let run = Apriori::new(AprioriParams::with_min_support_count(3)).mine(d.transactions());
        assert!(!run.frequent.level(1).is_empty());
        assert!(run.frequent.level(0).is_empty());
        assert!(run.frequent.level(99).is_empty());
        let total: usize = (1..=run.frequent.max_len())
            .map(|k| run.frequent.level(k).len())
            .sum();
        assert_eq!(total, run.frequent.len());
    }

    #[test]
    fn from_levels_reassembles() {
        let levels = vec![
            vec![(set(&[1]), 5), (set(&[2]), 4)],
            vec![(set(&[1, 2]), 3)],
        ];
        let f = FrequentItemsets::from_levels(levels, 10);
        assert_eq!(f.len(), 3);
        assert_eq!(f.support(&set(&[1, 2])), Some(3));
        assert_eq!(f.max_len(), 2);
        assert_eq!(f.num_transactions(), 10);
    }

    #[test]
    fn support_of_searches_the_level_of_its_size() {
        let levels = vec![
            vec![(set(&[1]), 5), (set(&[2]), 4), (set(&[4]), 4)],
            vec![(set(&[1, 2]), 3), (set(&[2, 4]), 2)],
        ];
        let f = FrequentItemsets::from_levels(levels, 10);
        assert_eq!(f.support_of(&[Item(2), Item(4)]), Some(2));
        assert_eq!(f.support_of(&[Item(4)]), Some(4));
        assert_eq!(f.support_of(&[Item(3)]), None);
        assert_eq!(f.support_of(&[Item(1), Item(4)]), None);
        assert_eq!(f.support_of(&[Item(1), Item(2), Item(4)]), None);
        assert_eq!(f.support_of(&[]), None);
        assert!(f.contains(&set(&[1, 2])) && !f.contains(&set(&[1, 4])));
        assert_eq!((f.len(), f.is_empty()), (5, false));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn from_levels_refuses_a_level_its_lookups_cannot_search() {
        let unsorted = vec![vec![(set(&[2]), 4), (set(&[1]), 5)]];
        let duplicated = vec![vec![(set(&[1]), 5), (set(&[1]), 5)]];
        let misplaced = vec![vec![(set(&[1]), 5), (set(&[1, 2]), 3)]];
        for levels in [unsorted, duplicated, misplaced] {
            let built = std::panic::catch_unwind(|| FrequentItemsets::from_levels(levels, 10));
            let message = *built.unwrap_err().downcast::<&str>().unwrap();
            assert!(message.contains("strictly ascending"), "{message}");
        }
    }

    #[test]
    fn support_monotonicity_holds() {
        // σ(X) ≥ σ(Y) whenever X ⊆ Y, over the discovered lattice.
        let d = table1();
        let run = Apriori::new(AprioriParams::with_min_support_count(1)).mine(d.transactions());
        for (set_b, count_b) in run.frequent.iter() {
            for (set_a, count_a) in run.frequent.iter() {
                if set_a.is_subset_of(set_b) {
                    assert!(
                        count_a >= count_b,
                        "monotonicity violated: {set_a}={count_a} ⊆ {set_b}={count_b}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_transaction_database() {
        let run = Apriori::new(AprioriParams::with_min_support_count(1)).mine(&[tx(1, &[2, 4, 6])]);
        assert_eq!(run.frequent.len(), 7, "all 2^3 - 1 subsets frequent");
        assert_eq!(run.frequent.max_len(), 3);
    }

    /// Strategy: a transaction as a set of item ids below `universe`.
    fn arb_transaction(universe: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
        prop::collection::btree_set(0..universe, 0..=max_len).prop_map(|s| s.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Support is anti-monotone over the discovered lattice:
        /// X ⊆ Y ⇒ σ(X) ≥ σ(Y).
        #[test]
        fn support_anti_monotonicity(
            raw_txs in prop::collection::vec(arb_transaction(12, 8), 1..30),
            min_count in 1u64..4,
        ) {
            let txs: Vec<Transaction> = raw_txs
                .iter()
                .enumerate()
                .map(|(i, ids)| tx(i as u64, ids))
                .collect();
            let run = Apriori::new(AprioriParams::with_min_support_count(min_count)).mine(&txs);
            let all: Vec<(&ItemSet, u64)> = run.frequent.iter().collect();
            for (x, cx) in &all {
                for (y, cy) in &all {
                    if x.is_subset_of(y) {
                        prop_assert!(cx >= cy, "{} ⊆ {} but {} < {}", x, y, cx, cy);
                    }
                }
            }
            // And every frequent count is the true count.
            for (s, c) in &all {
                let want = txs.iter().filter(|t| t.contains_set(s)).count() as u64;
                prop_assert_eq!(*c, want);
            }
        }
    }
}
