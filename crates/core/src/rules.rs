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
    /// Relative support of the antecedent, `σ(X)/|T|`.
    pub antecedent_support: f64,
    /// Relative support of the consequent, `σ(Y)/|T|`.
    pub consequent_support: f64,
}

impl Rule {
    /// Lift: `conf(X⟹Y) / supp(Y)` — how much more often X and Y co-occur
    /// than if independent. 1.0 means independence; > 1 positive
    /// association.
    pub fn lift(&self) -> f64 {
        self.confidence / self.consequent_support
    }

    /// Leverage (Piatetsky-Shapiro): `supp(X∪Y) − supp(X)·supp(Y)`.
    pub fn leverage(&self) -> f64 {
        self.support - self.antecedent_support * self.consequent_support
    }

    /// Conviction: `(1 − supp(Y)) / (1 − conf)`; ∞ for exact implications.
    pub fn conviction(&self) -> f64 {
        let denom = 1.0 - self.confidence;
        if denom <= 0.0 {
            f64::INFINITY
        } else {
            (1.0 - self.consequent_support) / denom
        }
    }
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
    let mut rules = Vec::new();
    for_each_rule(frequent, min_confidence, |rule| rules.push(rule));
    rules
}

/// Hands every rule meeting `min_confidence` to `sink`, in
/// [`generate_rules`]' order, holding none of them: a caller that keeps
/// only some rules pays memory for those alone.
pub fn for_each_rule(frequent: &FrequentItemsets, min_confidence: f64, mut sink: impl FnMut(Rule)) {
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence must be a fraction, got {min_confidence}"
    );
    for size in 2..=frequent.max_len() {
        for (itemset, count) in frequent.level(size) {
            grow_rules(frequent, itemset.items(), *count, min_confidence, &mut sink);
        }
    }
}

/// Level-wise consequent growth for one frequent itemset of `count`
/// transactions. Bit `i` of a consequent mask stands for `items[i]`.
/// Returns the number of consequents confidence-evaluated.
fn grow_rules(
    frequent: &FrequentItemsets,
    items: &[Item],
    count: u64,
    min_confidence: f64,
    sink: &mut impl FnMut(Rule),
) -> u64 {
    // A frequent 65-set would imply 2^65 frequent subsets.
    assert!(items.len() <= 64, "masks hold 64 items");
    let mut evaluated = 0u64;
    let mut confident = |consequent: &u64| {
        evaluated += 1;
        try_rule(frequent, items, *consequent, count, min_confidence, sink)
    };
    // Level 1: single-item consequents, in the itemset's own order.
    let mut consequents: Vec<u64> = (0..items.len()).map(|i| 1 << i).collect();
    consequents.retain(&mut confident);
    // Levels 2..: join surviving consequents, Apriori-style, up to
    // |itemset| - 1 items (the antecedent is non-empty).
    for _ in 2..items.len() {
        consequents = join_consequents(&consequents);
        consequents.retain(&mut confident);
    }
    evaluated
}

/// `apriori_gen` over consequent masks of one size, ordered as their
/// position lists are: masks differing only in their highest bit join, if
/// every other subset is in `prev`. The output keeps that order.
fn join_consequents(prev: &[u64]) -> Vec<u64> {
    // Position-list order: the mask holding the lowest differing bit first.
    let position_order = |a: &u64, b: u64| b.reverse_bits().cmp(&a.reverse_bits());
    let prefix = |mask: u64| mask & !(1 << (63 - mask.leading_zeros()));
    let mut out = Vec::new();
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
    out
}

/// Emits the rule `items\consequent ⟹ consequent` if it clears the
/// confidence bar, and says whether it did. Both sides are written into a
/// stack buffer, antecedent first, and boxed only for an emitted rule.
fn try_rule(
    frequent: &FrequentItemsets,
    items: &[Item],
    consequent: u64,
    count: u64,
    min_confidence: f64,
    sink: &mut impl FnMut(Rule),
) -> bool {
    let mut sides = [Item(0); 64];
    let split = items.len() - consequent.count_ones() as usize;
    let mut next = [0, split];
    for (i, &item) in items.iter().enumerate() {
        let side = ((consequent >> i) & 1) as usize;
        sides[next[side]] = item;
        next[side] += 1;
    }
    let (antecedent, consequent) = sides[..items.len()].split_at(split);
    debug_assert!(!antecedent.is_empty());
    // The antecedent is a subset of a frequent set, hence frequent itself.
    let antecedent_count = frequent
        .support_of(antecedent)
        .expect("antecedent of a frequent itemset must be frequent");
    let confidence = count as f64 / antecedent_count as f64;
    let confident = confidence >= min_confidence;
    if confident {
        let consequent_count = frequent
            .support_of(consequent)
            .expect("consequent of a frequent itemset must be frequent");
        let n = frequent.num_transactions().max(1) as f64;
        sink(Rule {
            antecedent: ItemSet::from_sorted(antecedent.to_vec()),
            consequent: ItemSet::from_sorted(consequent.to_vec()),
            support_count: count,
            support: count as f64 / n,
            confidence,
            antecedent_support: antecedent_count as f64 / n,
            consequent_support: consequent_count as f64 / n,
        });
    }
    confident
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{apriori_gen, Apriori, AprioriParams};
    use crate::dataset::Dataset;
    use crate::transaction::Transaction;

    /// The rules of one frequent itemset of size ≥ 2, and how many
    /// consequents `grow_rules` confidence-evaluated for them.
    fn rules_of(
        frequent: &FrequentItemsets,
        itemset: &ItemSet,
        min_confidence: f64,
    ) -> (Vec<Rule>, u64) {
        let count = frequent.support(itemset).unwrap();
        let mut out = Vec::new();
        let sink = &mut |rule| out.push(rule);
        let evaluated = grow_rules(frequent, itemset.items(), count, min_confidence, sink);
        (out, evaluated)
    }

    /// The growth this module had before consequents were masks: each
    /// level by the general `apriori_gen`, each evaluation through a boxed
    /// difference and two hashed lookups. Kept as the definition of the
    /// rule order and of the `evaluated` count `grow_rules` returns.
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
            let consequent_count = frequent.support(consequent).unwrap();
            let confidence = count as f64 / antecedent_count as f64;
            (confidence >= min_confidence).then(|| Rule {
                antecedent,
                consequent: consequent.clone(),
                support_count: count,
                support: count as f64 / n,
                confidence,
                antecedent_support: antecedent_count as f64 / n,
                consequent_support: consequent_count as f64 / n,
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
    fn exactly(rule: &Rule) -> (ItemSet, ItemSet, u64, [u64; 4]) {
        let measures = [
            rule.support,
            rule.confidence,
            rule.antecedent_support,
            rule.consequent_support,
        ];
        let bits = measures.map(f64::to_bits);
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
    /// `grow_rules` calls `apriori_gen` on consequents of every size.
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
        grow_rules(&FrequentItemsets::default(), &items, 1, 0.5, &mut |_| {});
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
    fn interest_measures_on_the_paper_rule() {
        // {Diaper, Milk} => {Beer}: supp 2/5, conf 2/3, supp(X)=3/5,
        // supp(Y)=3/5.
        let d = table1();
        let run = Apriori::new(AprioriParams::with_min_support_count(2)).mine(d.transactions());
        let rules = generate_rules(&run.frequent, 0.5);
        let dm = d.itemset(&["Diaper", "Milk"]).unwrap();
        let beer = d.itemset(&["Beer"]).unwrap();
        let r = rules
            .iter()
            .find(|r| r.antecedent == dm && r.consequent == beer)
            .unwrap();
        assert!((r.antecedent_support - 0.6).abs() < 1e-12);
        assert!((r.consequent_support - 0.6).abs() < 1e-12);
        // lift = (2/3) / (3/5) = 10/9.
        assert!((r.lift() - 10.0 / 9.0).abs() < 1e-12);
        // leverage = 2/5 - (3/5)(3/5) = 0.04.
        assert!((r.leverage() - 0.04).abs() < 1e-12);
        // conviction = (1 - 0.6) / (1 - 2/3) = 1.2.
        assert!((r.conviction() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn conviction_of_exact_implication_is_infinite() {
        let r = Rule {
            antecedent: ItemSet::from([1]),
            consequent: ItemSet::from([2]),
            support_count: 5,
            support: 0.5,
            confidence: 1.0,
            antecedent_support: 0.5,
            consequent_support: 0.7,
        };
        assert!(r.conviction().is_infinite());
        assert!(r.lift() > 1.0);
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
            antecedent_support: 0.8,
            consequent_support: 0.5,
        };
        assert_eq!(r.to_string(), "{1} => {2} (sup 40.0%, conf 50.0%)");
    }
}
