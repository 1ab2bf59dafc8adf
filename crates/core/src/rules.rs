//! Association-rule generation — the second step of rule discovery.
//!
//! The paper focuses on the (expensive) frequent-itemset step and calls the
//! rule step "straightforward"; we implement it anyway so the library is a
//! complete rule miner. The algorithm is `ap-genrules` of Agrawal &
//! Srikant: for each frequent itemset `f`, grow confident consequents
//! level-wise, pruning with the fact that if `f\Y ⟹ Y` fails the confidence
//! bar, so does `f\Y' ⟹ Y'` for every `Y' ⊇ Y`.

use crate::apriori::FrequentItemsets;
use crate::item::Item;
use crate::itemset::ItemSet;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An association rule `X ⟹ Y` with its measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The antecedent `X`.
    pub antecedent: ItemSet,
    /// The consequent `Y` (disjoint from `X`).
    pub consequent: ItemSet,
    /// σ(X ∪ Y): how many transactions contain the whole rule.
    pub support_count: u64,
    /// Relative support `σ(X ∪ Y)/|T|`.
    pub support: f64,
    /// Confidence `σ(X ∪ Y)/σ(X)`.
    pub confidence: f64,
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} => {} (sup {:.1}%, conf {:.1}%)",
            self.antecedent,
            self.consequent,
            self.support * 100.0,
            self.confidence * 100.0
        )
    }
}

/// Generates every rule meeting `min_confidence` from the frequent-itemset
/// lattice. Rules are emitted for all itemsets of size ≥ 2; both sides are
/// non-empty. Output order: by itemset (lexicographic, smaller sizes
/// first), then by consequent size, then lexicographic consequent.
///
/// ```
/// use armine_core::apriori::{Apriori, AprioriParams};
/// use armine_core::rules::generate_rules;
/// use armine_core::{Transaction, Item};
///
/// let db: Vec<Transaction> = (0..4)
///     .map(|t| Transaction::new(t, vec![Item(1), Item(2)]))
///     .collect();
/// let run = Apriori::new(AprioriParams::with_min_support_count(3)).mine(&db);
/// let rules = generate_rules(&run.frequent, 0.9);
/// assert_eq!(rules.len(), 2, "{{1}}=>{{2}} and {{2}}=>{{1}}");
/// assert!(rules.iter().all(|r| r.confidence == 1.0));
/// ```
pub fn generate_rules(frequent: &FrequentItemsets, min_confidence: f64) -> Vec<Rule> {
    let index = SupportIndex::new(frequent);
    let mut rules = Vec::new();
    for_each_confident(frequent, &index, min_confidence, |found| {
        rules.push(found.build(frequent));
    });
    rules
}

/// How many rules meet `min_confidence`, and the `top` best of them, best
/// first: by confidence, then by support count, both descending, then in
/// [`generate_rules`]' order — the head of a stable sort of all of them.
///
/// Rules are ranked before they are built: the ranking holds at most
/// `2·top + 64` unbuilt rules (an itemset, a consequent mask, its count
/// and the confidence), and once `top` are held, a rule that does not
/// beat the `top`-th best outright is counted and dropped (a tie loses on
/// generation order). Only the `top` rules returned are built.
pub fn top_rules(
    frequent: &FrequentItemsets,
    min_confidence: f64,
    top: usize,
) -> (usize, Vec<Rule>) {
    let index = SupportIndex::new(frequent);
    let mut ranking = Ranking::new(top);
    for_each_confident(frequent, &index, min_confidence, |found| {
        ranking.offer(found)
    });
    let count = ranking.seen;
    let best = ranking.into_best().into_iter();
    (count, best.map(|f| f.build(frequent)).collect())
}

/// A word-at-a-time hasher for the support index's keys: every item id is
/// one multiply-rotate step (the `FxHash` mix), the slice's length one
/// more. Deterministic, and far cheaper than `std`'s SipHash for keys of a
/// few words.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&byte| self.add(byte.into()));
    }

    fn write_u32(&mut self, word: u32) {
        self.add(word.into());
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }
}

/// Every frequent itemset's support count, keyed by its items borrowed
/// from the lattice: built once per call, so that each lookup of the rule
/// step is a hash and one compare rather than a binary search over a
/// level of boxed sets.
struct SupportIndex<'a> {
    counts: HashMap<&'a [Item], u64, BuildHasherDefault<WordHasher>>,
}

impl<'a> SupportIndex<'a> {
    fn new(frequent: &'a FrequentItemsets) -> Self {
        let mut counts = HashMap::with_capacity_and_hasher(frequent.len(), Default::default());
        counts.extend(frequent.iter().map(|(set, count)| (set.items(), count)));
        SupportIndex { counts }
    }

    /// The support count of a side of a rule: a subset of a frequent
    /// itemset, hence frequent itself.
    fn support(&self, items: &[Item]) -> u64 {
        *self
            .counts
            .get(items)
            .expect("a subset of a frequent itemset is frequent")
    }
}

/// A rule that clears the confidence bar, not yet built: its itemset, the
/// consequent as a mask over the itemset's positions, and the counts the
/// ranking and the rule need.
struct Found<'a> {
    items: &'a [Item],
    consequent: u64,
    count: u64,
    confidence: f64,
}

impl Found<'_> {
    /// The rule itself, both sides boxed.
    fn build(&self, frequent: &FrequentItemsets) -> Rule {
        let mut sides = [Item(0); 64];
        let (antecedent, consequent) = split_sides(self.items, self.consequent, &mut sides);
        let n = frequent.num_transactions().max(1) as f64;
        Rule {
            antecedent: ItemSet::from_sorted(antecedent.to_vec()),
            consequent: ItemSet::from_sorted(consequent.to_vec()),
            support_count: self.count,
            support: self.count as f64 / n,
            confidence: self.confidence,
        }
    }
}

/// Writes `items` into `sides`, those outside the `consequent` mask first,
/// and returns the two sides: antecedent, consequent.
fn split_sides<'s>(
    items: &[Item],
    consequent: u64,
    sides: &'s mut [Item; 64],
) -> (&'s [Item], &'s [Item]) {
    let split = items.len() - consequent.count_ones() as usize;
    let mut next = [0, split];
    for (i, &item) in items.iter().enumerate() {
        let side = ((consequent >> i) & 1) as usize;
        sides[next[side]] = item;
        next[side] += 1;
    }
    sides[..items.len()].split_at(split)
}

/// Hands every rule meeting `min_confidence` to `sink`, unbuilt, in
/// [`generate_rules`]' order.
fn for_each_confident<'a>(
    frequent: &'a FrequentItemsets,
    index: &SupportIndex,
    min_confidence: f64,
    mut sink: impl FnMut(Found<'a>),
) {
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence must be a fraction, got {min_confidence}"
    );
    let mut growth = Growth::default();
    for size in 2..=frequent.max_len() {
        for (itemset, count) in frequent.level(size) {
            growth.grow(index, itemset.items(), *count, min_confidence, &mut sink);
        }
    }
}

/// The consequent masks of one level of growth and of the next, reused
/// from itemset to itemset.
#[derive(Default)]
struct Growth {
    consequents: Vec<u64>,
    joined: Vec<u64>,
}

impl Growth {
    /// Level-wise consequent growth for one frequent itemset of `count`
    /// transactions. Bit `i` of a consequent mask stands for `items[i]`.
    /// Returns the number of consequents confidence-evaluated.
    fn grow<'a>(
        &mut self,
        index: &SupportIndex,
        items: &'a [Item],
        count: u64,
        min_confidence: f64,
        sink: &mut impl FnMut(Found<'a>),
    ) -> u64 {
        // A frequent 65-set would imply 2^65 frequent subsets.
        assert!(items.len() <= 64, "masks hold 64 items");
        let mut evaluated = 0u64;
        let mut confident = |&consequent: &u64| {
            evaluated += 1;
            let mut sides = [Item(0); 64];
            let (antecedent, _) = split_sides(items, consequent, &mut sides);
            debug_assert!(!antecedent.is_empty());
            let confidence = count as f64 / index.support(antecedent) as f64;
            let confident = confidence >= min_confidence;
            if confident {
                sink(Found {
                    items,
                    consequent,
                    count,
                    confidence,
                });
            }
            confident
        };
        // Level 1: single-item consequents, in the itemset's own order.
        self.consequents.clear();
        self.consequents.extend((0..items.len()).map(|i| 1 << i));
        self.consequents.retain(&mut confident);
        // Levels 2..: join surviving consequents, Apriori-style, up to
        // |itemset| - 1 items (the antecedent is non-empty).
        for _ in 2..items.len() {
            join_consequents(&self.consequents, &mut self.joined);
            std::mem::swap(&mut self.consequents, &mut self.joined);
            self.consequents.retain(&mut confident);
        }
        evaluated
    }
}

/// `apriori_gen` over consequent masks of one size, ordered as their
/// position lists are, into `out`: masks differing only in their highest
/// bit join, if every other subset is in `prev`. The output keeps that
/// order.
fn join_consequents(prev: &[u64], out: &mut Vec<u64>) {
    // Position-list order: the mask holding the lowest differing bit first.
    let position_order = |a: &u64, b: u64| b.reverse_bits().cmp(&a.reverse_bits());
    let prefix = |mask: u64| mask & !(1 << (63 - mask.leading_zeros()));
    out.clear();
    for (a, &first) in prev.iter().enumerate() {
        let shared = prefix(first);
        for &second in prev[a + 1..].iter().take_while(|&&m| prefix(m) == shared) {
            let joined = first | second;
            // Dropping one of the two highest bits gives `second` or
            // `first`; every prefix bit's subset is looked up.
            let mut subsets = (0..64 - shared.leading_zeros())
                .filter(|i| (shared >> i) & 1 == 1)
                .map(|i| joined & !(1 << i));
            if subsets.all(|s| prev.binary_search_by(|m| position_order(m, s)).is_ok()) {
                out.push(joined);
            }
        }
    }
}

/// The `top` best of a stream of unbuilt rules, by [`best_first`]. It
/// holds at most `2·top + 64`: when full, a selection keeps the best `top`
/// of those seen so far, and the `top`-th of them becomes the bar a later
/// rule must beat to be held at all.
struct Ranking<'a> {
    top: usize,
    seen: usize,
    /// `(generation index, rule)`.
    held: Vec<(usize, Found<'a>)>,
    /// The confidence and count of the `top`-th best rule at the last cut.
    bar: Option<(f64, u64)>,
}

/// By confidence, then by support count, both descending, then in
/// generation order.
fn best_first(a: &(usize, Found), b: &(usize, Found)) -> Ordering {
    (b.1.confidence.total_cmp(&a.1.confidence))
        .then(b.1.count.cmp(&a.1.count))
        .then(a.0.cmp(&b.0))
}

impl<'a> Ranking<'a> {
    fn new(top: usize) -> Self {
        Ranking {
            top,
            seen: 0,
            held: Vec::new(),
            bar: None,
        }
    }

    fn offer(&mut self, found: Found<'a>) {
        let order = self.seen;
        self.seen += 1;
        // Generated after every rule held, a rule that only ties the bar
        // loses to it.
        let beats = |&(confidence, count): &(f64, u64)| {
            (found.confidence.total_cmp(&confidence)).then(found.count.cmp(&count))
                == Ordering::Greater
        };
        if self.top == 0 || !self.bar.as_ref().is_none_or(beats) {
            return;
        }
        self.held.push((order, found));
        if self.held.len() >= self.top.saturating_mul(2).saturating_add(64) {
            self.cut();
        }
    }

    /// Keeps the best `top` rules held, best first, and raises the bar.
    fn cut(&mut self) {
        if self.top < self.held.len() {
            self.held.select_nth_unstable_by(self.top, best_first);
            self.held.truncate(self.top);
        }
        self.held.sort_unstable_by(best_first);
        if let Some((_, last)) = self.held.get(self.top.wrapping_sub(1)) {
            self.bar = Some((last.confidence, last.count));
        }
    }

    /// The best `top` rules, best first.
    fn into_best(mut self) -> Vec<Found<'a>> {
        self.cut();
        self.held.into_iter().map(|(_, found)| found).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{apriori_gen, Apriori, AprioriParams};
    use crate::dataset::Dataset;
    use crate::transaction::Transaction;

    /// The rules of one frequent itemset of size ≥ 2, and how many
    /// consequents `Growth::grow` confidence-evaluated for them.
    fn rules_of(
        frequent: &FrequentItemsets,
        itemset: &ItemSet,
        min_confidence: f64,
    ) -> (Vec<Rule>, u64) {
        let count = frequent.support(itemset).unwrap();
        let index = SupportIndex::new(frequent);
        let mut out = Vec::new();
        let sink = &mut |found: Found| out.push(found.build(frequent));
        let growth = &mut Growth::default();
        let evaluated = growth.grow(&index, itemset.items(), count, min_confidence, sink);
        (out, evaluated)
    }

    /// The growth this module had before consequents were masks: each
    /// level by the general `apriori_gen`, each evaluation through a boxed
    /// difference and two hashed lookups. Kept as the definition of the
    /// rule order and of the `evaluated` count `Growth::grow` returns.
    fn grow_rules_by_sets(
        frequent: &FrequentItemsets,
        itemset: &ItemSet,
        min_confidence: f64,
    ) -> (Vec<Rule>, u64) {
        let count = frequent.support(itemset).unwrap();
        let n = frequent.num_transactions().max(1) as f64;
        let try_rule = |consequent: &ItemSet| {
            let antecedent = itemset.difference(consequent);
            let antecedent_count = frequent.support(&antecedent).unwrap();
            let confidence = count as f64 / antecedent_count as f64;
            (confidence >= min_confidence).then(|| Rule {
                antecedent,
                consequent: consequent.clone(),
                support_count: count,
                support: count as f64 / n,
                confidence,
            })
        };
        let mut out = Vec::new();
        let mut evaluated = 0u64;
        let mut consequents: Vec<ItemSet> = Vec::new();
        for item in itemset {
            let consequent = ItemSet::singleton(item);
            evaluated += 1;
            if let Some(rule) = try_rule(&consequent) {
                out.push(rule);
                consequents.push(consequent);
            }
        }
        while !consequents.is_empty() && consequents[0].len() + 1 < itemset.len() {
            let next = apriori_gen(&consequents);
            consequents = next
                .into_iter()
                .filter_map(|consequent| {
                    evaluated += 1;
                    let rule = try_rule(&consequent)?;
                    out.push(rule);
                    Some(consequent)
                })
                .collect();
        }
        (out, evaluated)
    }

    /// Every field of a rule, its `f64`s as bits.
    fn exactly(rule: &Rule) -> (ItemSet, ItemSet, u64, [u64; 2]) {
        let bits = [rule.support, rule.confidence].map(f64::to_bits);
        (
            rule.antecedent.clone(),
            rule.consequent.clone(),
            rule.support_count,
            bits,
        )
    }

    /// On lattices six levels and more deep, at confidences from none to
    /// all-or-nothing, the mask growth emits the set growth's rules in its
    /// order, bit for bit, after as many evaluations, itemset by itemset.
    #[test]
    fn mask_growth_is_the_set_growth_rule_for_rule() {
        use rand::prelude::*;
        for seed in [5, 17, 29] {
            let mut rng = StdRng::seed_from_u64(seed);
            let transactions: Vec<Transaction> = (0..80)
                .map(|tid| {
                    let items = (0..9).filter(|_| rng.gen_bool(0.75)).map(Item).collect();
                    Transaction::new(tid, items)
                })
                .collect();
            let run = Apriori::new(AprioriParams::with_min_support_count(8)).mine(&transactions);
            let depth = run.frequent.max_len();
            assert!(depth >= 6, "seed {seed}: {depth} levels");
            for conf in [0.0, 0.5, 0.7, 1.0] {
                let mut want_all = Vec::new();
                for (itemset, _) in run.frequent.iter().filter(|(s, _)| s.len() >= 2) {
                    let (got, evaluated) = rules_of(&run.frequent, itemset, conf);
                    let (want, want_evaluated) = grow_rules_by_sets(&run.frequent, itemset, conf);
                    let on = format!("seed {seed}, {itemset} at {conf}");
                    let got: Vec<_> = got.iter().map(exactly).collect();
                    assert_eq!(got, want.iter().map(exactly).collect::<Vec<_>>(), "{on}");
                    assert_eq!(evaluated, want_evaluated, "{on}");
                    want_all.extend(want);
                }
                assert!(!want_all.is_empty(), "seed {seed} at {conf}: no rules");
                let all: Vec<_> = generate_rules(&run.frequent, conf)
                    .iter()
                    .map(exactly)
                    .collect();
                assert_eq!(all, want_all.iter().map(exactly).collect::<Vec<_>>());
            }
        }
    }

    /// Streaming 10K unbuilt rules with heavy ties, the ranking never
    /// holds more than `2·top + 64` and ends with the head of a stable
    /// sort, having counted every rule.
    #[test]
    fn the_ranking_holds_at_most_its_bound() {
        let items = [Item(1), Item(2)];
        let found = |i: usize| Found {
            items: &items,
            consequent: i as u64,
            count: (i * 7 % 5) as u64,
            confidence: [0.5, 1.0, 0.75][i * 13 % 3],
        };
        let key = |f: &Found| (f.confidence.to_bits(), f.count, f.consequent);
        let mut want: Vec<Found> = (0..10_000).map(found).collect();
        want.sort_by(|a, b| (b.confidence.total_cmp(&a.confidence)).then(b.count.cmp(&a.count)));
        for top in [0, 1, 63, 64, 65, 130, 3_000, 20_000] {
            let mut ranking = Ranking::new(top);
            for i in 0..10_000 {
                ranking.offer(found(i));
                assert!(ranking.held.len() <= 2 * top + 64, "top {top}");
            }
            assert_eq!(ranking.seen, 10_000);
            let got: Vec<_> = ranking.into_best().iter().map(key).collect();
            let want: Vec<_> = want[..top.min(want.len())].iter().map(key).collect();
            assert_eq!(got, want, "top {top}");
        }
    }

    /// On a seeded lattice with many ties, `top_rules` returns the head of
    /// a stable sort of `generate_rules`' rules, bit for bit, and counts
    /// them all, at every `top` from none to past the rule count.
    #[test]
    fn top_rules_are_the_head_of_a_stable_sort_of_every_rule() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let transactions: Vec<Transaction> = (0..60)
            .map(|tid| {
                let items = (0..8).filter(|_| rng.gen_bool(0.7)).map(Item).collect();
                Transaction::new(tid, items)
            })
            .collect();
        let run = Apriori::new(AprioriParams::with_min_support_count(6)).mine(&transactions);
        for conf in [0.0, 0.6, 0.8] {
            let mut every = generate_rules(&run.frequent, conf);
            every.sort_by(|a, b| {
                (b.confidence.total_cmp(&a.confidence)).then(b.support_count.cmp(&a.support_count))
            });
            assert!(every.len() > 2 * 65 + 64, "{} rules at {conf}", every.len());
            let n = every.len();
            for top in [0, 1, 20, 63, 64, 65, 129, n / 2, n - 1, n, n + 7] {
                let (count, best) = top_rules(&run.frequent, conf, top);
                assert_eq!(count, n, "top {top} at {conf}");
                let best: Vec<_> = best.iter().map(exactly).collect();
                let want: Vec<_> = every[..top.min(n)].iter().map(exactly).collect();
                assert_eq!(best, want, "top {top} at {conf}");
            }
        }
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

    /// The paper's Section II example: {Diaper, Milk} ⟹ {Beer} has
    /// support 40% and confidence 66%.
    #[test]
    fn paper_example_rule_measures() {
        let d = table1();
        let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(d.transactions());
        let rules = generate_rules(&run.frequent, 0.5);
        let dm = d.itemset(&["Diaper", "Milk"]).unwrap();
        let beer = d.itemset(&["Beer"]).unwrap();
        let rule = rules
            .iter()
            .find(|r| r.antecedent == dm && r.consequent == beer)
            .expect("rule {Diaper, Milk} => {Beer} must be generated");
        assert!((rule.support - 0.4).abs() < 1e-12, "support 40%");
        assert!(
            (rule.confidence - 2.0 / 3.0).abs() < 1e-12,
            "confidence 66%"
        );
        assert_eq!(rule.support_count, 2);
    }

    #[test]
    fn all_rules_meet_confidence_and_are_valid() {
        let d = table1();
        let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(d.transactions());
        let rules = generate_rules(&run.frequent, 0.6);
        assert!(!rules.is_empty());
        for r in &rules {
            assert!(r.confidence >= 0.6);
            assert!(r.confidence <= 1.0 + 1e-12);
            assert!(!r.antecedent.is_empty());
            assert!(!r.consequent.is_empty());
            // Sides are disjoint and their union is frequent with the
            // recorded count.
            let union = r.antecedent.union(&r.consequent);
            assert_eq!(union.len(), r.antecedent.len() + r.consequent.len());
            assert_eq!(run.frequent.support(&union), Some(r.support_count));
        }
    }

    #[test]
    fn rules_match_brute_force_enumeration() {
        let d = table1();
        let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(d.transactions());
        let min_conf = 0.55;
        let got = generate_rules(&run.frequent, min_conf);
        // Brute force: for every frequent itemset of size >= 2, try every
        // non-trivial bipartition.
        let mut want = 0usize;
        for size in 2..=run.frequent.max_len() {
            for (itemset, count) in run.frequent.level(size) {
                let items = itemset.items();
                for mask in 1u32..(1 << items.len()) - 1 {
                    let consequent: Vec<Item> = (0..items.len())
                        .filter(|&i| mask & (1 << i) != 0)
                        .map(|i| items[i])
                        .collect();
                    let consequent = ItemSet::from_sorted(consequent);
                    let antecedent = itemset.difference(&consequent);
                    let ac = run.frequent.support(&antecedent).unwrap();
                    if *count as f64 / ac as f64 >= min_conf {
                        want += 1;
                    }
                }
            }
        }
        assert_eq!(got.len(), want);
    }

    /// The same, rule for rule, on a lattice five levels deep, where
    /// the growth joins on consequents of every size.
    #[test]
    fn rules_are_the_brute_force_rules_on_a_seeded_lattice() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let transactions: Vec<Transaction> = (0..80)
            .map(|tid| {
                let items = (0..9).filter(|_| rng.gen_bool(0.6)).map(Item).collect();
                Transaction::new(tid, items)
            })
            .collect();
        let run = Apriori::new(AprioriParams::with_min_support_count(8)).mine(&transactions);
        assert!(run.frequent.max_len() >= 5);
        let min_conf = 0.7;
        let mut got: Vec<(ItemSet, ItemSet, u64)> = generate_rules(&run.frequent, min_conf)
            .into_iter()
            .map(|r| (r.antecedent, r.consequent, r.support_count))
            .collect();
        got.sort();
        let mut want = Vec::new();
        for size in 2..=run.frequent.max_len() {
            for (itemset, count) in run.frequent.level(size) {
                let items = itemset.items();
                for mask in 1u32..(1 << items.len()) - 1 {
                    let chosen = (0..items.len()).filter(|&i| mask & (1 << i) != 0);
                    let consequent = ItemSet::from_sorted(chosen.map(|i| items[i]).collect());
                    let antecedent = itemset.difference(&consequent);
                    let ac = run.frequent.support(&antecedent).unwrap();
                    if *count as f64 / ac as f64 >= min_conf {
                        want.push((antecedent, consequent, *count));
                    }
                }
            }
        }
        want.sort();
        assert!(want.len() > 300, "{} rules", want.len());
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "masks hold 64 items")]
    fn a_65_set_is_refused_before_any_lookup() {
        let items: Vec<Item> = (0..65).map(Item).collect();
        let lattice = FrequentItemsets::default();
        let index = SupportIndex::new(&lattice);
        Growth::default().grow(&index, &items, 1, 0.5, &mut |_| {});
    }

    #[test]
    fn higher_confidence_yields_fewer_rules() {
        let d = table1();
        let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(d.transactions());
        let loose = generate_rules(&run.frequent, 0.0);
        let tight = generate_rules(&run.frequent, 0.9);
        assert!(tight.len() <= loose.len());
    }

    #[test]
    fn confidence_one_rules_are_exact_implications() {
        let transactions: Vec<Transaction> = (0..10)
            .map(|tid| {
                // Item 1 always implies item 2.
                if tid % 2 == 0 {
                    Transaction::new(tid, vec![Item(1), Item(2)])
                } else {
                    Transaction::new(tid, vec![Item(2), Item(3)])
                }
            })
            .collect();
        let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(&transactions);
        let rules = generate_rules(&run.frequent, 1.0);
        assert!(rules
            .iter()
            .any(|r| r.antecedent == ItemSet::from([1]) && r.consequent == ItemSet::from([2])));
        // And nothing below confidence 1.0 sneaks in.
        for r in &rules {
            assert!(r.confidence >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn no_frequent_itemsets_no_rules() {
        let run = Apriori::new(AprioriParams::with_min_support_count(100)).mine(&[]);
        assert!(generate_rules(&run.frequent, 0.5).is_empty());
    }

    #[test]
    #[should_panic(expected = "confidence must be a fraction")]
    fn rejects_out_of_range_confidence() {
        generate_rules(&FrequentItemsets::default(), 1.5);
    }

    #[test]
    fn evaluated_count_is_exhaustive_when_nothing_prunes() {
        // All transactions identical ⇒ every rule has confidence 1, so
        // level-wise growth evaluates every non-trivial consequent of the
        // 4-itemset: 2^4 − 2 = 14.
        let transactions: Vec<Transaction> = (0..5)
            .map(|tid| Transaction::new(tid, vec![Item(1), Item(2), Item(3), Item(4)]))
            .collect();
        let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(&transactions);
        let four = ItemSet::from([1, 2, 3, 4]);
        let (rules, evaluated) = rules_of(&run.frequent, &four, 0.9);
        assert_eq!(evaluated, 14);
        assert_eq!(rules.len(), 14);
    }

    #[test]
    fn evaluated_count_reflects_level_wise_pruning() {
        // The triple {1,2,3} is much rarer than its pairs, so every
        // single-item consequent of the triple fails a 0.9 confidence bar
        // (conf = 2/12) and growth stops after the 3 level-1 evaluations —
        // far below the 2^3 − 2 = 6 bipartitions.
        let mut transactions = Vec::new();
        let mut tid = 0u64;
        for pair in [[1u32, 2], [1, 3], [2, 3]] {
            for _ in 0..10 {
                transactions.push(Transaction::new(
                    tid,
                    pair.iter().map(|&i| Item(i)).collect(),
                ));
                tid += 1;
            }
        }
        for _ in 0..2 {
            transactions.push(Transaction::new(tid, vec![Item(1), Item(2), Item(3)]));
            tid += 1;
        }
        let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(&transactions);
        let triple = ItemSet::from([1, 2, 3]);
        assert!(
            run.frequent.support(&triple).is_some(),
            "triple is frequent"
        );
        let (rules, evaluated) = rules_of(&run.frequent, &triple, 0.9);
        assert!(rules.is_empty());
        assert_eq!(evaluated, 3, "pruning stops after the level-1 failures");
    }

    #[test]
    fn display_formats_percentages() {
        let r = Rule {
            antecedent: ItemSet::from([1]),
            consequent: ItemSet::from([2]),
            support_count: 2,
            support: 0.4,
            confidence: 0.5,
        };
        assert_eq!(r.to_string(), "{1} => {2} (sup 40.0%, conf 50.0%)");
    }
}
