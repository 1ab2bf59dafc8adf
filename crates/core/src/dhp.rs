//! DHP — Direct Hashing and Pruning (Park, Chen & Yu, SIGMOD '95).
//!
//! The serial algorithm behind PDM, the parallel formulation the paper's
//! Section III-E cites as "similar in nature to the CD algorithm". DHP
//! augments Apriori with two ideas:
//!
//! 1. **Hash filtering** — while counting pass `k`, every (k+1)-subset of
//!    each transaction is hashed into a bucket table; a pass-(k+1)
//!    candidate is generated only if, besides surviving the Apriori
//!    subset prune, its bucket count reaches minimum support. Heavy
//!    buckets over-approximate the candidate's own support, so no
//!    frequent itemset is ever lost — but vast numbers of hopeless
//!    candidates never get built into the hash tree (the savings
//!    concentrate in pass 2, where `|C_2|` is largest).
//! 2. **Transaction trimming** — after pass `k`, an item can only matter
//!    to later passes if it occurs in some frequent `k`-itemset
//!    (anti-monotonicity); all other items are dropped from the
//!    database, shrinking every later scan.
//!
//! The miner produces the *identical* frequent-itemset lattice to
//! [`Apriori`](crate::apriori::Apriori) — tested — with strictly fewer
//! candidates counted.

use crate::apriori::{
    candidate_arena, count_candidates, FrequentItemsets, MinSupport, MiningRun, PassInfo,
};
use crate::bitmap::ItemBitmap;
use crate::counter::CounterBackend;
use crate::hashtree::HashTreeParams;
use crate::item::Item;
use crate::itemset::ItemSet;
use crate::stable_hash::hash_itemset;
use crate::transaction::Transaction;

/// The bucket table for one pass's hash filter.
#[derive(Debug, Clone)]
pub struct HashFilter {
    buckets: Vec<u64>,
}

impl HashFilter {
    /// An all-zero filter with `buckets` buckets.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets >= 1, "need at least one bucket");
        HashFilter {
            buckets: vec![0; buckets],
        }
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the filter has zero buckets (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Hashes the itemset `set` to its bucket index.
    #[inline]
    pub fn bucket_of(&self, set: &[Item]) -> usize {
        (hash_itemset(set) % self.buckets.len() as u64) as usize
    }

    /// Adds one occurrence of `set`.
    #[inline]
    pub fn add(&mut self, set: &ItemSet) {
        let b = self.bucket_of(set.items());
        self.buckets[b] += 1;
    }

    /// Whether the bucket of the itemset `set` reaches `min_count` — a
    /// necessary condition for `set` to be frequent (the bucket aggregates
    /// every subset that hashed there, so it upper-bounds σ(set)).
    #[inline]
    pub fn admits(&self, set: &[Item], min_count: u64) -> bool {
        self.buckets[self.bucket_of(set)] >= min_count
    }

    /// Raw bucket counts — what PDM's global reduction sums.
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Overwrites the bucket counts (after a reduction).
    ///
    /// # Panics
    /// If the length differs.
    pub fn set_counts(&mut self, counts: &[u64]) {
        assert_eq!(counts.len(), self.buckets.len(), "bucket arity mismatch");
        self.buckets.copy_from_slice(counts);
    }

    /// Fraction of buckets at or above `min_count` (diagnostics: a filter
    /// where most buckets are heavy prunes nothing).
    pub fn heavy_fraction(&self, min_count: u64) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        self.buckets.iter().filter(|&&c| c >= min_count).count() as f64 / self.buckets.len() as f64
    }
}

/// DHP tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhpParams {
    /// Minimum support threshold.
    pub min_support: MinSupport,
    /// Hash-tree shape for the counting passes. Ignored by the trie
    /// backend.
    pub tree: HashTreeParams,
    /// Which counting structure counts each pass's candidates.
    pub counter: CounterBackend,
    /// Buckets in each pass's hash filter.
    pub buckets: usize,
    /// Build hash filters for passes `2..=1+hash_filter_passes` (the
    /// original builds them while counting the preceding pass; filters
    /// beyond pass 3 rarely pay for themselves).
    pub hash_filter_passes: usize,
    /// Enable transaction trimming between passes.
    pub trim: bool,
    /// Stop after this pass.
    pub max_k: Option<usize>,
}

impl DhpParams {
    /// Defaults: 2¹⁵ buckets, filters for passes 2 and 3, trimming on.
    pub fn with_min_support(fraction: f64) -> Self {
        DhpParams {
            min_support: MinSupport::Fraction(fraction),
            tree: HashTreeParams::default(),
            counter: CounterBackend::default(),
            buckets: 1 << 15,
            hash_filter_passes: 2,
            trim: true,
            max_k: None,
        }
    }

    /// Defaults with an absolute count threshold.
    pub fn with_min_support_count(count: u64) -> Self {
        DhpParams {
            min_support: MinSupport::Count(count),
            ..Self::with_min_support(0.0)
        }
    }

    /// Selects the candidate-counting backend.
    pub fn counter(mut self, counter: CounterBackend) -> Self {
        self.counter = counter;
        self
    }

    /// Sets the bucket count.
    pub fn buckets(mut self, buckets: usize) -> Self {
        assert!(buckets >= 1);
        self.buckets = buckets;
        self
    }

    /// Sets how many passes get hash filters.
    pub fn hash_filter_passes(mut self, n: usize) -> Self {
        self.hash_filter_passes = n;
        self
    }

    /// Enables/disables transaction trimming.
    pub fn trim(mut self, on: bool) -> Self {
        self.trim = on;
        self
    }

    /// Caps the maximum itemset size.
    pub fn max_k(mut self, k: usize) -> Self {
        self.max_k = Some(k);
        self
    }
}

/// Per-pass DHP accounting beyond the base [`PassInfo`].
#[derive(Debug, Clone, Default)]
pub struct DhpPassInfo {
    /// Candidates Apriori would have generated (before the bucket prune).
    pub apriori_candidates: usize,
    /// Candidates actually counted (after the bucket prune).
    pub candidates: usize,
    /// Transactions surviving in the (possibly trimmed) database.
    pub live_transactions: usize,
    /// Total items across the live transactions (trimming shrinks this).
    pub live_items: usize,
}

/// The result of a DHP run: the standard mining result plus the
/// pruning/trimming diagnostics.
#[derive(Debug, Clone, Default)]
pub struct DhpRun {
    /// Frequent itemsets and per-pass base accounting.
    pub run: MiningRun,
    /// Per-pass DHP-specific accounting, aligned with `run.passes`.
    pub dhp_passes: Vec<DhpPassInfo>,
}

impl DhpRun {
    /// The discovered frequent itemsets.
    pub fn frequent(&self) -> &FrequentItemsets {
        &self.run.frequent
    }

    /// Total candidates pruned by the hash filters across all passes.
    pub fn candidates_pruned(&self) -> usize {
        self.dhp_passes
            .iter()
            .map(|p| p.apriori_candidates - p.candidates)
            .sum()
    }
}

/// The DHP miner.
///
/// ```
/// use armine_core::dhp::{Dhp, DhpParams};
/// use armine_core::{Transaction, Item, ItemSet};
///
/// let db: Vec<Transaction> = (0..10)
///     .map(|t| Transaction::new(t, vec![Item(1), Item(2), Item((t % 3) as u32 + 3)]))
///     .collect();
/// let run = Dhp::new(DhpParams::with_min_support_count(5)).mine(&db);
/// assert_eq!(run.frequent().support(&ItemSet::from([1, 2])), Some(10));
/// ```
#[derive(Debug, Clone)]
pub struct Dhp {
    params: DhpParams,
}

impl Dhp {
    /// A miner with the given parameters.
    pub fn new(params: DhpParams) -> Self {
        Dhp { params }
    }

    /// Mines all frequent itemsets. Equivalent output to Apriori.
    pub fn mine(&self, transactions: &[Transaction]) -> DhpRun {
        let min_count = self.params.min_support.resolve(transactions.len());
        let mut out = DhpRun::default();
        out.run.min_count = min_count;

        // Live (possibly trimmed) database; starts as a copy.
        let mut db: Vec<Transaction> = transactions.to_vec();

        // Pass 1: item counts + the pass-2 hash filter in the same scan.
        let num_items = db
            .iter()
            .filter_map(|t| t.items().last())
            .map(|i| i.id() + 1)
            .max()
            .unwrap_or(0) as usize;
        let mut counts = vec![0u64; num_items];
        let mut filter =
            (self.params.hash_filter_passes >= 1).then(|| HashFilter::new(self.params.buckets));
        for t in &db {
            for item in t.items() {
                counts[item.index()] += 1;
            }
            if let Some(f) = &mut filter {
                for pair in t.k_subsets(2) {
                    f.add(&pair);
                }
            }
        }
        let f1: Vec<(ItemSet, u64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= min_count)
            .map(|(id, &c)| (ItemSet::singleton(Item(id as u32)), c))
            .collect();
        out.run.passes.push(PassInfo {
            k: 1,
            candidates: counts.iter().filter(|&&c| c > 0).count(),
            frequent: f1.len(),
            db_scans: 1,
            tree_stats: Default::default(),
        });
        out.dhp_passes.push(DhpPassInfo {
            apriori_candidates: counts.iter().filter(|&&c| c > 0).count(),
            candidates: counts.iter().filter(|&&c| c > 0).count(),
            live_transactions: db.len(),
            live_items: db.iter().map(Transaction::len).sum(),
        });
        let mut levels: Vec<Vec<(ItemSet, u64)>> = vec![f1];

        let mut k = 2;
        while self.params.max_k.is_none_or(|m| k <= m) {
            let prev = levels.last().expect("F_1 is always committed");
            if prev.is_empty() {
                break;
            }
            // Trim the database using F_{k-1} (sound: an item absent from
            // every frequent (k-1)-itemset cannot occur in any frequent
            // itemset of size >= k).
            if self.params.trim {
                db = trim_database(&db, prev, num_items as u32, k);
            }
            // Generate with the Apriori join+prune into the arena the
            // counter adopts, dropping each survivor the bucket prune refuses.
            let mut apriori_count = 0;
            let candidates = candidate_arena(
                prev,
                |(s, _)| s.items(),
                |arena| {
                    apriori_count += 1;
                    let row = arena.len() - k;
                    if filter
                        .as_ref()
                        .is_some_and(|f| !f.admits(&arena[row..], min_count))
                    {
                        arena.truncate(row);
                    }
                },
            );
            if candidates.is_empty() {
                break;
            }
            // Count this pass; build next pass's filter in the same scan
            // if configured.
            let mut next_filter =
                (self.params.hash_filter_passes >= k).then(|| HashFilter::new(self.params.buckets));
            if let Some(f) = &mut next_filter {
                for t in &db {
                    for sub in t.k_subsets(k + 1) {
                        f.add(&sub);
                    }
                }
            }
            let (level, info) = count_candidates(
                k,
                candidates,
                &db,
                min_count,
                self.params.counter,
                self.params.tree,
                None,
            );
            out.dhp_passes.push(DhpPassInfo {
                apriori_candidates: apriori_count,
                candidates: info.candidates,
                live_transactions: db.len(),
                live_items: db.iter().map(Transaction::len).sum(),
            });
            out.run.passes.push(info);
            let done = level.is_empty();
            levels.push(level);
            filter = next_filter;
            k += 1;
            if done {
                break;
            }
        }
        out.run.frequent = FrequentItemsets::from_levels(levels, transactions.len() as u64);
        out
    }
}

/// Removes items that occur in no frequent (k−1)-itemset, and transactions
/// left with fewer than `k` items.
fn trim_database(
    db: &[Transaction],
    prev_level: &[(ItemSet, u64)],
    num_items: u32,
    k: usize,
) -> Vec<Transaction> {
    let mut keep = ItemBitmap::new(num_items);
    for (set, _) in prev_level {
        for item in set {
            keep.insert(item);
        }
    }
    db.iter()
        .filter_map(|t| {
            let kept: Vec<Item> = t
                .items()
                .iter()
                .copied()
                .filter(|&i| keep.contains(i))
                .collect();
            (kept.len() >= k).then(|| Transaction::from_sorted(t.tid(), kept))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{Apriori, AprioriParams};
    use rand::prelude::*;
    use std::collections::HashMap;

    fn random_db(seed: u64, n: usize, items: u32) -> Vec<Transaction> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|tid| {
                let len = rng.gen_range(1..=10);
                Transaction::new(
                    tid as u64,
                    (0..len).map(|_| Item(rng.gen_range(0..items))).collect(),
                )
            })
            .collect()
    }

    fn lattice_of(f: &FrequentItemsets) -> HashMap<ItemSet, u64> {
        f.iter().map(|(s, c)| (s.clone(), c)).collect()
    }

    #[test]
    fn filter_admits_is_an_upper_bound() {
        let mut f = HashFilter::new(64);
        let a = ItemSet::from([1, 2]);
        for _ in 0..5 {
            f.add(&a);
        }
        assert!(f.admits(a.items(), 5));
        assert!(!f.admits(a.items(), 6));
        // A colliding set inherits the bucket count — false positives are
        // allowed (over-approximation), false negatives are not.
        let other = ItemSet::from([9, 17]);
        if f.bucket_of(other.items()) == f.bucket_of(a.items()) {
            assert!(f.admits(other.items(), 5));
        }
    }

    #[test]
    fn filter_counts_roundtrip() {
        let mut f = HashFilter::new(8);
        f.add(&ItemSet::from([1]));
        let snapshot = f.counts().to_vec();
        let mut g = HashFilter::new(8);
        g.set_counts(&snapshot);
        assert_eq!(g.counts(), &snapshot[..]);
        assert!(f.heavy_fraction(1) > 0.0);
        assert_eq!(f.heavy_fraction(100), 0.0);
    }

    #[test]
    fn dhp_matches_apriori_exactly() {
        for seed in [1u64, 2, 3, 4] {
            let db = random_db(seed, 60, 15);
            for min_count in [2u64, 3, 5] {
                let apriori =
                    Apriori::new(AprioriParams::with_min_support_count(min_count)).mine(&db);
                let dhp = Dhp::new(DhpParams::with_min_support_count(min_count)).mine(&db);
                assert_eq!(
                    lattice_of(&dhp.run.frequent),
                    lattice_of(&apriori.frequent),
                    "seed={seed} min={min_count}"
                );
            }
        }
    }

    #[test]
    fn dhp_with_tiny_bucket_table_still_exact() {
        // Heavy collisions ⇒ weak pruning, never wrong answers.
        let db = random_db(7, 80, 12);
        let apriori = Apriori::new(AprioriParams::with_min_support_count(3)).mine(&db);
        let dhp = Dhp::new(DhpParams::with_min_support_count(3).buckets(4)).mine(&db);
        assert_eq!(lattice_of(&dhp.run.frequent), lattice_of(&apriori.frequent));
    }

    #[test]
    fn dhp_prunes_candidates() {
        let db = random_db(11, 200, 40);
        let min_count = 4;
        let apriori = Apriori::new(AprioriParams::with_min_support_count(min_count)).mine(&db);
        let dhp = Dhp::new(DhpParams::with_min_support_count(min_count).buckets(1 << 14)).mine(&db);
        // Identical answers...
        assert_eq!(lattice_of(&dhp.run.frequent), lattice_of(&apriori.frequent));
        // ...with strictly fewer pass-2 candidates counted.
        let a2 = apriori.passes.iter().find(|p| p.k == 2).unwrap().candidates;
        let d2 = dhp.run.passes.iter().find(|p| p.k == 2).unwrap().candidates;
        assert!(
            d2 < a2,
            "bucket prune should shrink |C2|: apriori {a2}, dhp {d2}"
        );
        assert!(dhp.candidates_pruned() > 0);
        // The diagnostics record the pre-prune count.
        assert_eq!(dhp.dhp_passes[1].apriori_candidates, a2);
    }

    #[test]
    fn trimming_shrinks_live_items_and_stays_exact() {
        let db = random_db(13, 150, 30);
        let min_count = 5;
        let trimmed = Dhp::new(DhpParams::with_min_support_count(min_count).trim(true)).mine(&db);
        let untrimmed =
            Dhp::new(DhpParams::with_min_support_count(min_count).trim(false)).mine(&db);
        assert_eq!(
            lattice_of(&trimmed.run.frequent),
            lattice_of(&untrimmed.run.frequent)
        );
        // Pass-2 live volume under trimming ≤ untrimmed.
        if trimmed.dhp_passes.len() > 1 {
            assert!(
                trimmed.dhp_passes[1].live_items <= untrimmed.dhp_passes[1].live_items,
                "trimming must not grow the database"
            );
        }
    }

    #[test]
    fn no_filters_degenerates_to_apriori() {
        let db = random_db(17, 60, 15);
        let apriori = Apriori::new(AprioriParams::with_min_support_count(3)).mine(&db);
        let dhp = Dhp::new(
            DhpParams::with_min_support_count(3)
                .hash_filter_passes(0)
                .trim(false),
        )
        .mine(&db);
        assert_eq!(lattice_of(&dhp.run.frequent), lattice_of(&apriori.frequent));
        for (a, d) in apriori.passes.iter().zip(dhp.run.passes.iter()) {
            assert_eq!(a.candidates, d.candidates, "pass {}", a.k);
        }
    }

    #[test]
    fn max_k_and_empty_db() {
        let dhp = Dhp::new(DhpParams::with_min_support_count(1).max_k(2)).mine(&[]);
        assert!(dhp.run.frequent.is_empty());
        let db = random_db(19, 40, 10);
        let capped = Dhp::new(DhpParams::with_min_support_count(2).max_k(2)).mine(&db);
        assert!(capped.run.frequent.max_len() <= 2);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        HashFilter::new(0);
    }
}
