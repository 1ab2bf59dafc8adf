//! Cross-backend equivalence of the [`CandidateCounter`] seam: the hash
//! tree, the candidate trie, the vertical (tidlist) counter, and
//! brute-force subset containment must agree exactly — on full counts,
//! under ownership filters, and end-to-end through every parallel
//! formulation on both the simulated and the native execution backend.

use armine::core::binpack::{partition_by_first_item, partition_two_level};
use armine::core::counter::CounterBackend;
use armine::core::hashtree::{HashTreeParams, OwnershipFilter};
use armine::core::rules::generate_rules;
use armine::core::{Item, ItemSet, Transaction};
use armine::datagen::QuestParams;
use armine::mpsim::ExecBackend;
use armine::parallel::{Algorithm, ParallelMiner, ParallelParams};
use proptest::prelude::*;

/// Strategy: a transaction as a set of item ids below `universe`.
fn arb_transaction(universe: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..universe, 0..=max_len).prop_map(|s| s.into_iter().collect())
}

/// Strategy: a sorted candidate itemset of exactly `k` distinct items.
fn arb_candidate(universe: u32, k: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..universe, k).prop_map(|s| s.into_iter().collect())
}

fn to_transactions(raw: &[Vec<u32>]) -> Vec<Transaction> {
    raw.iter()
        .enumerate()
        .map(|(i, ids)| Transaction::new(i as u64, ids.iter().map(|&x| Item(x)).collect()))
        .collect()
}

fn to_itemsets(raw: &[Vec<u32>]) -> Vec<ItemSet> {
    let mut sets: Vec<ItemSet> = raw
        .iter()
        .map(|ids| ItemSet::new(ids.iter().map(|&x| Item(x)).collect()))
        .collect();
    sets.sort();
    sets.dedup();
    sets
}

/// The reference semantics both backends must implement: candidate `c` is
/// counted in `t` iff `c ⊆ t` and the filter admits the walk that reaches
/// `c` — its first item at the root, its second at depth one.
fn brute_force(
    candidates: &[ItemSet],
    transactions: &[Transaction],
    filter: &OwnershipFilter,
) -> Vec<u64> {
    candidates
        .iter()
        .map(|c| {
            let first = c.first().unwrap();
            if !filter.allows_root(first) {
                return 0;
            }
            if c.len() >= 2 && !filter.allows_second(first, c.items()[1]) {
                return 0;
            }
            transactions.iter().filter(|t| t.contains_set(c)).count() as u64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every backend produces the identical count vector and frequent
    /// level as brute-force subset containment, unfiltered.
    #[test]
    fn backends_equal_brute_force_unfiltered(
        raw_cands in prop::collection::vec(arb_candidate(20, 3), 1..40),
        raw_txs in prop::collection::vec(arb_transaction(20, 10), 0..40),
        min_count in 1u64..4,
    ) {
        let cands = to_itemsets(&raw_cands);
        let txs = to_transactions(&raw_txs);
        let filter = OwnershipFilter::all();
        let want = brute_force(&cands, &txs, &filter);
        let mut levels = Vec::new();
        for backend in CounterBackend::ALL {
            let mut counter = backend.build(3, HashTreeParams::default(), cands.clone());
            counter.count_all(&txs, &filter);
            prop_assert_eq!(
                counter.count_vector(), want.clone(), "backend {}", backend.name()
            );
            for (c, w) in cands.iter().zip(&want) {
                prop_assert_eq!(counter.count_of(c), Some(*w), "{}", c);
            }
            levels.push(counter.frequent(min_count));
        }
        for (backend, level) in CounterBackend::ALL.iter().zip(&levels).skip(1) {
            prop_assert_eq!(
                &levels[0], level, "frequent levels diverge on {}", backend.name()
            );
        }
    }

    /// Under a first-item partition, each part's filtered count is exact
    /// on both backends, and the union of frequent levels across parts
    /// equals the serial (unpartitioned) frequent level.
    #[test]
    fn backends_equal_brute_force_partitioned(
        raw_cands in prop::collection::vec(arb_candidate(16, 2), 1..30),
        raw_txs in prop::collection::vec(arb_transaction(16, 8), 0..30),
        procs in 2usize..5,
        min_count in 1u64..3,
    ) {
        let cands = to_itemsets(&raw_cands);
        let txs = to_transactions(&raw_txs);
        let part = partition_by_first_item(&cands, 16, &vec![1.0; procs]);
        let mut serial = CounterBackend::HashTree.build(2, HashTreeParams::default(), cands.clone());
        serial.count_all(&txs, &OwnershipFilter::all());
        let mut want_union = serial.frequent(min_count);
        want_union.sort();
        let mut unions = Vec::new();
        for backend in CounterBackend::ALL {
            let mut union = Vec::new();
            for (mine, filter) in part.parts.iter().zip(&part.filters) {
                let mut counter = backend.build(2, HashTreeParams::default(), mine.clone());
                counter.count_all(&txs, filter);
                let want = brute_force(mine, &txs, filter);
                prop_assert_eq!(
                    counter.count_vector(), want, "backend {}", backend.name()
                );
                union.extend(counter.frequent(min_count));
            }
            union.sort();
            prop_assert_eq!(&union, &want_union, "backend {}", backend.name());
            unions.push(union);
        }
        for (backend, union) in CounterBackend::ALL.iter().zip(&unions).skip(1) {
            prop_assert_eq!(&unions[0], union, "union diverges on {}", backend.name());
        }
    }

    /// The same two properties where the hash tree's sized default
    /// widens past fan-out 8: every pair (k = 2) or triple (k = 3) over a
    /// universe, less each `thin`-th, counted whole and as two ranks'
    /// shares under first-item or two-level ownership.
    #[test]
    fn backends_equal_brute_force_on_wide_trees(
        raw_txs in prop::collection::vec(arb_transaction(46, 14), 1..20),
        k in 2usize..4,
        thin in 3usize..8,
        split_threshold in 0u64..3,
    ) {
        let universe: u32 = if k == 2 { 72 } else { 46 };
        let everything = Transaction::new(0, (0..universe).map(Item).collect());
        let cands: Vec<ItemSet> = everything
            .k_subsets(k)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % thin != 0)
            .map(|(_, set)| set)
            .collect();
        let tree = HashTreeParams::default();
        let txs = to_transactions(&raw_txs);
        let capacities = [1.0, 1.0];
        let part = match split_threshold {
            0 => partition_by_first_item(&cands, universe, &capacities),
            t => partition_two_level(&cands, universe, &capacities, 40 * t),
        };
        let whole = (&cands, &OwnershipFilter::all());
        for (mine, filter) in part.parts.iter().zip(&part.filters).chain([whole]) {
            prop_assert!(tree.fan_out(k, mine.len()) > 8, "not a wide tree");
            let want = brute_force(mine, &txs, filter);
            for backend in CounterBackend::ALL {
                let mut counter = backend.build(k, tree, mine.clone());
                counter.count_all(&txs, filter);
                prop_assert_eq!(
                    counter.count_vector(), want.clone(), "backend {}", backend.name()
                );
            }
        }
    }
}

/// Every parallel formulation mines the identical frequent itemsets — and
/// therefore identical association rules — whichever counting backend the
/// [`ParallelParams::counter`] knob selects, on both the simulated and the
/// native (wall-clock) execution backend.
#[test]
fn all_formulations_agree_across_backends() {
    let dataset = QuestParams::paper_t15_i6()
        .num_transactions(300)
        .num_items(80)
        .num_patterns(30)
        .seed(515)
        .generate();
    let algorithms = [
        Algorithm::Cd,
        Algorithm::Npa,
        Algorithm::Dd,
        Algorithm::DdComm,
        Algorithm::Idd,
        Algorithm::IddSingleSource,
        Algorithm::Hd { group_threshold: 8 },
        Algorithm::Hpa { eld_permille: 100 },
        Algorithm::Pdm {
            buckets: 1 << 10,
            filter_passes: 1,
        },
    ];
    for exec in [ExecBackend::Sim, ExecBackend::Native] {
        let miner = ParallelMiner::new(4).backend(exec);
        for algorithm in algorithms {
            let run = |backend| {
                let params = ParallelParams::with_min_support_count(9)
                    .page_size(40)
                    .max_k(4)
                    .counter(backend);
                miner.mine(algorithm, &dataset, &params)
            };
            let levels = |r: &armine::parallel::ParallelRun| -> Vec<(ItemSet, u64)> {
                r.frequent.iter().map(|(s, c)| (s.clone(), c)).collect()
            };
            let tree = run(CounterBackend::HashTree);
            for counter in [CounterBackend::Trie, CounterBackend::Vertical] {
                let other = run(counter);
                assert_eq!(
                    levels(&tree),
                    levels(&other),
                    "{algorithm:?} lattice ({exec:?}, {})",
                    counter.name()
                );
                assert_eq!(
                    generate_rules(&tree.frequent, 0.7),
                    generate_rules(&other.frequent, 0.7),
                    "{algorithm:?} rules ({exec:?}, {})",
                    counter.name()
                );
            }
        }
    }
}
