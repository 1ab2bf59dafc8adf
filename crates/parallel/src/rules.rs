//! Parallel rule generation — the discovery pipeline's second step.
//!
//! The paper: "The parallel implementation of the second step is
//! straightforward and is discussed in [6]." Agrawal & Shafer's scheme,
//! implemented here: every processor already holds the complete frequent
//! lattice (all our counting algorithms end each pass by reassembling the
//! global `F_k` everywhere), so the itemsets of size ≥ 2 are simply
//! partitioned round-robin; each processor runs the serial `ap-genrules`
//! consequent growth on its share and an all-to-all broadcast merges the
//! rule sets. No support look-ups ever cross processors — the lattice is
//! replicated — so the step parallelizes embarrassingly.

use armine_core::apriori::FrequentItemsets;
use armine_core::rules::{rules_for_itemset_counted, Rule};
use armine_mpsim::{RankStats, Simulator};

/// The result of a parallel rule-generation run.
#[derive(Debug, Clone)]
pub struct ParallelRulesRun {
    /// All rules meeting the confidence bar, ordered as the serial
    /// generator would emit them (by itemset, then consequent level).
    pub rules: Vec<Rule>,
    /// Virtual response time of the step (seconds).
    pub response_time: f64,
    /// Per-rank accounting.
    pub ranks: Vec<RankStats>,
}

/// Per-rule-candidate work constant: one confidence evaluation is a pair
/// of support look-ups plus an arithmetic check.
const T_RULE: f64 = 300e-9;

/// Generates rules from a (replicated) frequent lattice on `sim`'s
/// simulated machine.
pub(crate) fn generate_rules_parallel(
    sim: &Simulator,
    frequent: &FrequentItemsets,
    min_confidence: f64,
) -> ParallelRulesRun {
    // The work list: every frequent itemset of size >= 2, in the serial
    // generator's order, with a stable index for round-robin ownership.
    let work: Vec<&armine_core::ItemSet> = (2..=frequent.max_len())
        .flat_map(|size| frequent.level(size).iter().map(|(s, _)| s))
        .collect();
    let work = &work;
    let result = sim.run(move |comm| {
        let p = comm.size();
        let me = comm.rank();
        let mut mine: Vec<(usize, Vec<Rule>)> = Vec::new();
        let mut evaluated = 0u64;
        for (idx, itemset) in work.iter().enumerate() {
            if idx % p != me {
                continue;
            }
            // Work model: one confidence check per consequent the
            // level-wise growth actually evaluated — pruning means this is
            // usually far below the 2^|s| bipartition bound.
            let (rules, evaluated_here) =
                rules_for_itemset_counted(frequent, itemset, min_confidence);
            evaluated += evaluated_here;
            mine.push((idx, rules));
        }
        comm.advance(evaluated as f64 * T_RULE);
        // All-to-all broadcast of the per-processor rule batches.
        let bytes = 16
            + mine
                .iter()
                .map(|(_, rules)| rules.len() * 48)
                .sum::<usize>();
        let all: Vec<Vec<(usize, Vec<Rule>)>> =
            crate::common::cannot_fail(comm.world().try_allgather(mine, bytes));
        // Reassemble in serial order by work index.
        let mut indexed: Vec<(usize, Vec<Rule>)> = all.into_iter().flatten().collect();
        indexed.sort_by_key(|(idx, _)| *idx);
        indexed
            .into_iter()
            .flat_map(|(_, r)| r)
            .collect::<Vec<Rule>>()
    });
    let response_time = result.response_time();
    let mut results = result.results;
    let rules = results.swap_remove(0);
    debug_assert!(
        results.iter().all(|r| r.len() == rules.len()),
        "ranks disagree on the rule set"
    );
    ParallelRulesRun {
        rules,
        response_time,
        ranks: result.ranks,
    }
}

#[cfg(test)]
mod tests {

    use crate::{Algorithm, ParallelMiner, ParallelParams};
    use armine_core::rules::generate_rules;
    use armine_datagen::QuestParams;

    #[test]
    fn parallel_rules_match_serial_rules() {
        let dataset = QuestParams::paper_t15_i6()
            .num_transactions(400)
            .num_items(100)
            .num_patterns(40)
            .seed(91)
            .generate();
        let miner = ParallelMiner::new(4);
        let run = miner.mine(
            Algorithm::Cd,
            &dataset,
            &ParallelParams::with_min_support(0.02).max_k(4),
        );
        let serial = generate_rules(&run.frequent, 0.7);
        assert!(!serial.is_empty());
        let parallel = miner.generate_rules(&run.frequent, 0.7);
        assert_eq!(serial.len(), parallel.rules.len());
        for (a, b) in serial.iter().zip(&parallel.rules) {
            assert_eq!(
                a, b,
                "rule order and content must match the serial generator"
            );
        }
        assert!(parallel.response_time > 0.0);
        assert_eq!(parallel.ranks.len(), 4);
    }

    #[test]
    fn more_processors_less_rule_time() {
        let dataset = QuestParams::paper_t15_i6()
            .num_transactions(600)
            .num_items(120)
            .num_patterns(60)
            .seed(93)
            .generate();
        let base = ParallelMiner::new(2);
        let run = base.mine(
            Algorithm::Cd,
            &dataset,
            &ParallelParams::with_min_support(0.015).max_k(4),
        );
        let t2 = base.generate_rules(&run.frequent, 0.5).response_time;
        let t8 = ParallelMiner::new(8)
            .generate_rules(&run.frequent, 0.5)
            .response_time;
        assert!(
            t8 < t2,
            "rule generation is embarrassingly parallel: {t8} !< {t2}"
        );
    }

    #[test]
    fn rule_time_charges_actual_evaluations_not_the_exponential_bound() {
        use armine_core::rules::rules_for_itemset_counted;
        let dataset = QuestParams::paper_t15_i6()
            .num_transactions(400)
            .num_items(100)
            .num_patterns(40)
            .seed(97)
            .generate();
        let miner = ParallelMiner::new(1);
        let run = miner.mine(
            Algorithm::Cd,
            &dataset,
            &ParallelParams::with_min_support(0.02).max_k(5),
        );
        let evaluated: u64 = (2..=run.frequent.max_len())
            .flat_map(|size| run.frequent.level(size).iter())
            .map(|(s, _)| rules_for_itemset_counted(&run.frequent, s, 0.7).1)
            .sum();
        assert!(evaluated > 0);
        let out = miner.generate_rules(&run.frequent, 0.7);
        let busy = out.ranks[0].busy;
        let want = evaluated as f64 * super::T_RULE;
        assert!(
            (busy - want).abs() < 1e-12 * want.max(1.0),
            "charged {busy}s, evaluated consequents price {want}s"
        );
    }

    #[test]
    fn empty_lattice_yields_no_rules() {
        let frequent = armine_core::apriori::FrequentItemsets::default();
        let out = ParallelMiner::new(3).generate_rules(&frequent, 0.5);
        assert!(out.rules.is_empty());
    }
}
