//! The pool of maximal potentially large itemsets ("patterns").
//!
//! Patterns model the latent purchase behaviours the transactions are
//! assembled from. Their three statistical properties (VLDB '94 §4):
//! correlated composition (each pattern reuses a fraction of its
//! predecessor's items), skewed popularity (exponential weights, normalized
//! to a probability distribution), and per-pattern corruption levels (so a
//! pattern usually contributes only part of itself to a transaction).

use crate::dist::{Exponential, Normal, Poisson};
use armine_core::Item;
use rand::seq::SliceRandom;
use rand::Rng;

/// One maximal potentially large itemset.
#[derive(Debug, Clone)]
pub(crate) struct Pattern {
    /// The items, sorted ascending.
    pub(crate) items: Vec<Item>,
    /// Selection probability (all weights sum to 1 across the pool).
    pub(crate) weight: f64,
    /// Corruption level: while `uniform(0,1) < corruption`, an item is
    /// dropped from the pattern instance added to a transaction.
    pub(crate) corruption: f64,
}

/// The pattern pool plus its roulette wheel: the cumulative weights and a
/// guide table over them, so that a draw is an O(1) lookup (Chen and Asau's
/// indexed search) rather than a binary search over `|L|` floats.
#[derive(Debug, Clone)]
pub(crate) struct PatternPool {
    patterns: Vec<Pattern>,
    cumulative: Vec<f64>,
    /// `guide[j]` is the first index whose cumulative weight is `≥ j / G`,
    /// `G = guide.len()` a power of two `≥ 4·|L|`: a draw `x` lands in
    /// bucket `⌊x·G⌋` and scans on from there, about a quarter of a step.
    guide: Vec<u32>,
}

impl PatternPool {
    /// Builds a pool of `num_patterns` patterns over `num_items` items.
    ///
    /// * `avg_len` — mean pattern size (`|I|`, Poisson, clamped to ≥ 1 and
    ///   ≤ `num_items`).
    /// * `correlation` — mean fraction of items reused from the previous
    ///   pattern (exponentially distributed per pattern).
    /// * `corruption_mean`/`corruption_sd` — the clamped-normal corruption
    ///   level distribution (the original tool uses mean 0.5, variance 0.1).
    pub(crate) fn build<R: Rng + ?Sized>(
        rng: &mut R,
        num_patterns: usize,
        num_items: u32,
        avg_len: f64,
        correlation: f64,
        corruption_mean: f64,
        corruption_sd: f64,
    ) -> Self {
        assert!(num_patterns > 0, "need at least one pattern");
        assert!(num_items > 0, "need at least one item");
        let len_dist = Poisson::new(avg_len.max(f64::MIN_POSITIVE));
        let weight_dist = Exponential::new(1.0);
        let corruption_dist = Normal::new(corruption_mean, corruption_sd);
        let reuse_dist = Exponential::new(correlation.max(1e-9));

        let mut patterns: Vec<Pattern> = Vec::with_capacity(num_patterns);
        let mut prev_items: Vec<Item> = Vec::new();
        for _ in 0..num_patterns {
            let len = (len_dist.sample(rng).max(1) as usize).min(num_items as usize);
            let mut items: Vec<Item> = Vec::with_capacity(len);
            // Reuse a fraction of the previous pattern (correlation).
            if !prev_items.is_empty() {
                let frac = reuse_dist.sample(rng).min(1.0);
                let reuse = ((frac * len as f64).round() as usize).min(prev_items.len());
                let mut pool = prev_items.clone();
                pool.shuffle(rng);
                items.extend(pool.into_iter().take(reuse));
            }
            // Fill the rest with fresh random items.
            while items.len() < len {
                let candidate = Item(rng.gen_range(0..num_items));
                if !items.contains(&candidate) {
                    items.push(candidate);
                }
            }
            items.sort_unstable();
            items.dedup();
            prev_items = items.clone();
            patterns.push(Pattern {
                items,
                weight: weight_dist.sample(rng),
                corruption: corruption_dist.sample(rng).clamp(0.0, 1.0),
            });
        }
        PatternPool::from_patterns(patterns)
    }

    /// The pool of `patterns`, their weights normalized to a probability
    /// distribution, with its wheel.
    fn from_patterns(mut patterns: Vec<Pattern>) -> Self {
        let total: f64 = patterns.iter().map(|p| p.weight).sum();
        let mut cumulative = Vec::with_capacity(patterns.len());
        let mut acc = 0.0;
        for p in &mut patterns {
            p.weight /= total;
            acc += p.weight;
            cumulative.push(acc);
        }
        // Guard against floating-point drift in the final bucket.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        // `j / G` is exact for a power of two, and so is `x · G` in `pick`.
        let buckets = (4 * cumulative.len()).next_power_of_two();
        let mut at = 0;
        let guide = (0..buckets)
            .map(|j| {
                let edge = j as f64 / buckets as f64;
                while cumulative[at] < edge {
                    at += 1;
                }
                at as u32
            })
            .collect();
        PatternPool {
            patterns,
            cumulative,
            guide,
        }
    }

    /// The patterns.
    #[cfg(test)]
    pub(crate) fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Number of patterns (`|L|`).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Roulette-selects a pattern index by weight: one uniform draw.
    pub(crate) fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index_of(rng.gen())
    }

    /// The first index whose cumulative weight is `≥ x`, for `x` in
    /// `[0, 1)`: the guide table's bucket, then a short forward scan.
    fn index_of(&self, x: f64) -> usize {
        let mut at = self.guide[(x * self.guide.len() as f64) as usize] as usize;
        while self.cumulative.get(at).is_some_and(|&c| c < x) {
            at += 1;
        }
        at.min(self.patterns.len() - 1)
    }

    /// Produces a corrupted instance of pattern `idx` in `items`, a buffer
    /// the caller reuses: items are removed while `uniform(0,1) <
    /// corruption` (so a corruption level of 0 keeps the whole pattern;
    /// higher levels keep less). At least one item is always kept.
    pub(crate) fn corrupted_instance<R: Rng + ?Sized>(
        &self,
        idx: usize,
        rng: &mut R,
        items: &mut Vec<Item>,
    ) {
        let p = &self.patterns[idx];
        items.clear();
        items.extend_from_slice(&p.items);
        let mut dropped = false;
        while items.len() > 1 && rng.gen::<f64>() < p.corruption {
            let victim = rng.gen_range(0..items.len());
            items.swap_remove(victim);
            dropped = true;
        }
        // `swap_remove` is what unsorts; a whole pattern is sorted already.
        if dropped {
            items.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn pool(seed: u64) -> PatternPool {
        let mut rng = StdRng::seed_from_u64(seed);
        PatternPool::build(&mut rng, 100, 500, 6.0, 0.5, 0.5, 0.1f64.sqrt())
    }

    #[test]
    fn pool_has_requested_size_and_valid_items() {
        let p = pool(1);
        assert_eq!(p.len(), 100);
        for pat in p.patterns() {
            assert!(!pat.items.is_empty());
            assert!(
                pat.items.windows(2).all(|w| w[0] < w[1]),
                "sorted, distinct"
            );
            assert!(pat.items.iter().all(|i| i.id() < 500));
            assert!((0.0..=1.0).contains(&pat.corruption));
        }
    }

    #[test]
    fn weights_are_normalized() {
        let p = pool(2);
        let total: f64 = p.patterns().iter().map(|pat| pat.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
    }

    #[test]
    fn average_pattern_length_near_target() {
        let p = pool(3);
        let avg: f64 = p
            .patterns()
            .iter()
            .map(|pat| pat.items.len() as f64)
            .sum::<f64>()
            / p.len() as f64;
        assert!(avg > 4.0 && avg < 8.0, "avg pattern length {avg}, target 6");
    }

    #[test]
    fn pick_respects_weights() {
        let p = pool(4);
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = vec![0u32; p.len()];
        for _ in 0..50_000 {
            counts[p.pick(&mut rng)] += 1;
        }
        // The empirical frequency of the heaviest pattern should be close
        // to its weight.
        let (hi, _) = p
            .patterns()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.weight.partial_cmp(&b.1.weight).unwrap())
            .unwrap();
        let freq = counts[hi] as f64 / 50_000.0;
        let weight = p.patterns()[hi].weight;
        assert!(
            (freq - weight).abs() < 0.02,
            "heaviest pattern: freq {freq} vs weight {weight}"
        );
    }

    /// The search `pick` made before the guide table: a binary search over
    /// the cumulative weights, kept as the definition of the draw.
    fn binary_search_index_of(pool: &PatternPool, x: f64) -> usize {
        match pool
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).unwrap())
        {
            Ok(i) | Err(i) => i.min(pool.patterns.len() - 1),
        }
    }

    #[test]
    fn guide_table_picks_what_the_binary_search_picked() {
        for num_patterns in [1, 2, 120, 2000] {
            let mut rng = StdRng::seed_from_u64(num_patterns as u64);
            let p = PatternPool::build(&mut rng, num_patterns, 1000, 6.0, 0.5, 0.5, 0.3);
            assert!(p.cumulative.windows(2).all(|w| w[0] < w[1]));
            for _ in 0..1_000_000 {
                let x = rng.gen();
                assert_eq!(p.index_of(x), binary_search_index_of(&p, x), "x = {x}");
            }
            // Every bucket's edge, the smallest draw and the largest.
            let buckets = p.guide.len();
            assert!(buckets.is_power_of_two() && buckets >= 4 * num_patterns);
            let edges = (0..buckets).map(|j| j as f64 / buckets as f64);
            for x in edges.chain([0.0, 1.0 - f64::EPSILON / 2.0]) {
                assert_eq!(p.index_of(x), binary_search_index_of(&p, x), "x = {x}");
            }
        }
    }

    /// A zero weight ties two cumulative weights. The guide table picks
    /// the first index `≥ x`, so a zero-weight pattern is drawn only by
    /// `x = 0.0` when it leads the pool and never otherwise; among equal
    /// elements `binary_search_by` may return any one, so this is the one
    /// place the two searches need not agree. A Quest pool never ties: its
    /// weights are exponential draws, and every pool the generator builds
    /// is strictly increasing (asserted above).
    #[test]
    fn tied_cumulative_weights_pick_the_first_index_at_or_above() {
        let pattern = |id, weight| Pattern {
            items: vec![Item(id)],
            weight,
            corruption: 0.0,
        };
        let p = PatternPool::from_patterns(vec![
            pattern(0, 0.0),
            pattern(1, 0.25),
            pattern(2, 0.0),
            pattern(3, 0.25),
            pattern(4, 0.5),
        ]);
        assert_eq!(p.cumulative, [0.0, 0.25, 0.25, 0.5, 1.0]);
        for (x, first) in [
            (0.0, 0),
            (f64::EPSILON, 1),
            (0.25, 1),
            (0.25 + f64::EPSILON, 3),
            (0.5, 3),
            (0.75, 4),
            (1.0 - f64::EPSILON / 2.0, 4),
        ] {
            assert_eq!(p.index_of(x), first, "x = {x}");
        }
        let mut rng = StdRng::seed_from_u64(11);
        assert!((0..10_000).all(|_| p.pick(&mut rng) != 2));
    }

    #[test]
    fn corrupted_instance_is_subset_and_nonempty() {
        let p = pool(5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut inst = Vec::new();
        for idx in 0..p.len() {
            p.corrupted_instance(idx, &mut rng, &mut inst);
            assert!(!inst.is_empty());
            let full = &p.patterns()[idx].items;
            assert!(inst.iter().all(|i| full.contains(i)), "instance ⊆ pattern");
            assert!(inst.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn zero_corruption_keeps_everything() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = PatternPool::build(&mut rng, 10, 100, 5.0, 0.5, 0.0, 0.0);
        for pat in &mut p.patterns {
            pat.corruption = 0.0;
        }
        let mut inst = Vec::new();
        for idx in 0..p.len() {
            p.corrupted_instance(idx, &mut rng, &mut inst);
            assert_eq!(inst, p.patterns()[idx].items);
        }
    }

    #[test]
    fn correlation_reuses_items() {
        // With high correlation, consecutive patterns overlap noticeably
        // more than with none.
        let overlap = |correlation: f64, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = PatternPool::build(&mut rng, 200, 10_000, 8.0, correlation, 0.5, 0.1);
            let mut total = 0.0;
            for w in p.patterns().windows(2) {
                let shared = w[1].items.iter().filter(|i| w[0].items.contains(i)).count();
                total += shared as f64 / w[1].items.len() as f64;
            }
            total / (p.len() - 1) as f64
        };
        // A huge universe makes accidental overlap negligible.
        assert!(overlap(0.9, 10) > overlap(1e-9, 10) + 0.2);
    }

    #[test]
    #[should_panic(expected = "at least one pattern")]
    fn empty_pool_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        PatternPool::build(&mut rng, 0, 10, 5.0, 0.5, 0.5, 0.1);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = pool(42);
        let b = pool(42);
        for (x, y) in a.patterns().iter().zip(b.patterns()) {
            assert_eq!(x.items, y.items);
            assert_eq!(x.weight, y.weight);
        }
    }
}
