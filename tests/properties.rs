//! Property-based tests (proptest) over the core invariants.

use armine::core::apriori::{apriori_gen, Apriori, AprioriParams};
use armine::core::binpack::{partition_by_first_item, partition_round_robin, partition_two_level};
use armine::core::counter::CandidateCounter;
use armine::core::hashtree::{HashTree, HashTreeParams, OwnershipFilter};
use armine::core::model::expected_distinct_leaves;
use armine::core::{Item, ItemSet, Transaction};
use proptest::prelude::*;

mod common;
use common::{arb_candidate, arb_transaction, shares, to_itemsets, to_transactions};

/// Every `k`-subset of `0..universe` in lexicographic order, less each
/// `thin`-th one: candidate sets dense enough that the sized default
/// widens the tree past fan-out 8.
fn dense_candidates(universe: u32, k: usize, thin: usize) -> Vec<ItemSet> {
    let everything = Transaction::new(0, (0..universe).map(Item).collect());
    let (mut kept, mut i) = (Vec::new(), 0);
    everything.for_each_k_subset(k, |set| {
        if i % thin != 0 {
            kept.push(ItemSet::from_sorted(set.to_vec()));
        }
        i += 1;
    });
    kept
}

fn brute_counts(cands: &[ItemSet], txs: &[Transaction]) -> Vec<u64> {
    cands
        .iter()
        .map(|c| txs.iter().filter(|t| t.contains_set(c)).count() as u64)
        .collect()
}

/// Drops and delays only: transient faults cost time, never answers, and
/// (with no crash to recover from) leave adaptive placement switched on.
fn transient_plan(seed: u64) -> armine::mpsim::FaultPlan {
    armine::mpsim::FaultPlan::new()
        .seed(seed)
        .drop_rate(0.15)
        .delays(0.1, 1e-4)
        .rto(1e-5)
}

/// The vertical (tid-list) oracle, shared with armine-core's own tests.
#[path = "../crates/core/src/tidlist.rs"]
mod tidlist;
use tidlist::TidListIndex;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sized default counts like brute force where its rule widens
    /// the tree (k = 2 and k = 3, fan-out above 8): unfiltered, and on
    /// two ranks' shares under IDD's first-item and two-level filters.
    /// Up to 599 transactions, so most cases span two or three
    /// 256-transaction batches.
    #[test]
    fn sized_hashtree_equals_brute_force(
        raw_txs in prop::collection::vec(arb_transaction(46, 14), 1..600),
        k in 2usize..4,
        thin in 3usize..8,
        split_threshold in 0u64..3,
    ) {
        let universe = if k == 2 { 72 } else { 46 };
        let cands = dense_candidates(universe, k, thin);
        let txs = to_transactions(&raw_txs);
        let capacities = [1.0, 1.0];
        let part = match split_threshold {
            0 => partition_by_first_item(&cands, universe, &capacities),
            t => partition_two_level(&cands, universe, &capacities, 40 * t),
        };
        let whole = (&cands, &OwnershipFilter::all());
        let shares = shares(&part, &cands);
        for (mine, filter) in shares.iter().zip(&part.filters).chain([whole]) {
            let mut tree = HashTree::build(k, HashTreeParams::default(), mine.clone());
            prop_assert!(tree.branching() > 8, "{} candidates stayed at 8", mine.len());
            tree.count_all(&txs, filter);
            prop_assert_eq!(tree.count_vector(), brute_counts(mine, &txs));
        }
    }

    /// The hash tree counts exactly like brute-force subset containment,
    /// for arbitrary candidates, transactions, and tree shapes, on either
    /// side of the 256-transaction batch.
    #[test]
    fn hashtree_equals_brute_force(
        raw_cands in prop::collection::vec(arb_candidate(24, 3), 1..40),
        raw_txs in prop::collection::vec(arb_transaction(24, 10), 0..600),
        branching in 2usize..9,
        max_leaf in 1usize..6,
    ) {
        let cands = to_itemsets(&raw_cands);
        let txs = to_transactions(&raw_txs);
        let mut tree = HashTree::build(3, HashTreeParams { branching, max_leaf }, cands.clone());
        tree.count_all(&txs, &OwnershipFilter::all());
        for c in &cands {
            let want = txs.iter().filter(|t| t.contains_set(c)).count() as u64;
            prop_assert_eq!(tree.count_of(c), Some(want), "candidate {}", c);
        }
    }

    /// apriori_gen output is sorted, deduplicated, of size k, and exactly
    /// the sets whose (k-1)-subsets are all present.
    #[test]
    fn apriori_gen_is_sound_and_complete(
        raw_prev in prop::collection::vec(arb_candidate(10, 2), 1..30),
    ) {
        let prev = to_itemsets(&raw_prev);
        let got = apriori_gen(&prev);
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        let prev_set: std::collections::HashSet<&ItemSet> = prev.iter().collect();
        // Sound: every output's subsets are frequent.
        for c in &got {
            prop_assert_eq!(c.len(), 3);
            prop_assert!(c.subsets_dropping_one().all(|s| prev_set.contains(&s)));
        }
        // Complete: every valid 3-set is produced.
        let got_set: std::collections::HashSet<&ItemSet> = got.iter().collect();
        for a in 0u32..10 {
            for b in a + 1..10 {
                for c in b + 1..10 {
                    let cand = ItemSet::from([a, b, c]);
                    let valid = cand.subsets_dropping_one().all(|s| prev_set.contains(&s));
                    prop_assert_eq!(got_set.contains(&cand), valid, "{}", cand);
                }
            }
        }
    }

    /// V(i,j) stays within [1, min(i,j)] and is monotone in i.
    #[test]
    fn v_model_bounds(i in 1u32..500, j in 1u32..500) {
        let v = expected_distinct_leaves(i as f64, j as f64);
        prop_assert!(v >= 1.0 - 1e-9);
        prop_assert!(v <= (i.min(j)) as f64 + 1e-9);
        let v_next = expected_distinct_leaves((i + 1) as f64, j as f64);
        prop_assert!(v_next >= v);
    }

    /// Horizontal (Apriori/hash-tree) and vertical (tid-list) counting
    /// agree on every frequent itemset — two independent implementations
    /// cross-validating each other.
    #[test]
    fn apriori_agrees_with_tidlist_index(
        raw_txs in prop::collection::vec(arb_transaction(14, 9), 1..40),
        min_count in 1u64..4,
    ) {
        let txs = to_transactions(&raw_txs);
        let run = Apriori::new(AprioriParams::with_min_support_count(min_count)).mine(&txs);
        let index = TidListIndex::build(&txs);
        for (set, count) in run.frequent.iter() {
            prop_assert_eq!(index.support(set), count, "{}", set);
        }
    }

    /// A heterogeneous cluster never changes the mined lattice — under
    /// either placement policy, with or without transient faults (which,
    /// having no crashes, leave adaptive re-balancing on), every
    /// formulation returns bit-identical itemsets to the homogeneous
    /// fault-free run. Speeds, placement and lost messages move work and
    /// time, never answers.
    #[test]
    fn heterogeneity_and_placement_preserve_the_lattice(
        raw_txs in prop::collection::vec(arb_transaction(14, 8), 4..30),
        alg_idx in 0usize..9,
        adaptive in 0u32..2,
        slow_rank in 0usize..4,
        speed_num in 1u32..9,
        fault_seed in 0u64..6, // 0: no fault plan
    ) {
        use armine::mpsim::{ClusterProfile, MachineProfile};
        use armine::parallel::{Algorithm, ParallelMiner, ParallelParams, PlacementPolicy};
        let algorithm = [
            Algorithm::Cd,
            Algorithm::Npa,
            Algorithm::Dd,
            Algorithm::DdComm,
            Algorithm::Idd,
            Algorithm::IddSingleSource,
            Algorithm::Hd { group_threshold: 8 },
            Algorithm::Hpa { eld_permille: 250 },
            Algorithm::Pdm { buckets: 64, filter_passes: 1 },
        ][alg_idx];
        let placement = if adaptive == 1 {
            PlacementPolicy::Adaptive
        } else {
            PlacementPolicy::Static
        };
        let txs = to_transactions(&raw_txs);
        let dataset = armine::core::Dataset::with_num_items(txs, 14);
        let params = ParallelParams::with_min_support_count(2)
            .page_size(4)
            .max_k(3)
            .placement(placement);
        let procs = 4;
        let cluster = ClusterProfile::uniform(MachineProfile::cray_t3e())
            .speed(slow_rank, f64::from(speed_num) / 4.0);
        let plan = (fault_seed > 0).then(|| transient_plan(fault_seed));
        let hetero = ParallelMiner::new(procs)
            .cluster(cluster)
            .mine_with_faults(algorithm, &dataset, &params, plan.as_ref())
            .expect("transient faults are recoverable");
        let homo = ParallelMiner::new(procs).mine(algorithm, &dataset, &params);
        let a: Vec<(ItemSet, u64)> =
            hetero.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
        let b: Vec<(ItemSet, u64)> =
            homo.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
        prop_assert_eq!(a, b, "{} diverged under {}", algorithm.name(), placement);
    }

    /// The IDD root filter never changes counted results — only work.
    #[test]
    fn bitmap_filter_preserves_owned_counts(
        raw_cands in prop::collection::vec(arb_candidate(16, 2), 1..30),
        raw_txs in prop::collection::vec(arb_transaction(16, 8), 0..30),
        procs in 2usize..5,
    ) {
        let cands = to_itemsets(&raw_cands);
        let txs = to_transactions(&raw_txs);
        let part = partition_by_first_item(&cands, 16, &vec![1.0; procs]);
        for (mine, filter) in shares(&part, &cands).iter().zip(&part.filters) {
            let mut tree = HashTree::build(2, HashTreeParams::default(), mine.clone());
            tree.count_all(&txs, filter);
            for c in mine {
                let want = txs.iter().filter(|t| t.contains_set(c)).count() as u64;
                prop_assert_eq!(tree.count_of(c), Some(want));
            }
        }
    }
}

/// The transient plan of `heterogeneity_and_placement_preserve_the_lattice`
/// really bites: on a fixed workload it forces retransmits through the
/// adaptive re-balancing exchange, and the lattice still equals the
/// homogeneous fault-free one.
#[test]
fn transient_plan_bites_under_adaptive_placement() {
    use armine::mpsim::{ClusterProfile, MachineProfile};
    use armine::parallel::{Algorithm, ParallelMiner, ParallelParams, PlacementPolicy};
    let dataset = armine::datagen::QuestParams::paper_t15_i6()
        .num_transactions(300)
        .num_items(60)
        .num_patterns(20)
        .seed(83)
        .generate();
    let params = ParallelParams::with_min_support_count(9)
        .page_size(40)
        .max_k(3);
    let cluster = ClusterProfile::uniform(MachineProfile::cray_t3e()).speed(1, 0.25);
    // CD re-slices transactions between ranks, IDD re-packs candidates.
    for algorithm in [Algorithm::Cd, Algorithm::Idd] {
        let want = ParallelMiner::new(4).mine(algorithm, &dataset, &params);
        let got = ParallelMiner::new(4)
            .cluster(cluster.clone())
            .mine_with_faults(
                algorithm,
                &dataset,
                &params.placement(PlacementPolicy::Adaptive),
                Some(&transient_plan(7)),
            )
            .expect("transient faults are recoverable");
        assert!(got.total_retransmits() > 0, "{}", algorithm.name());
        assert!(
            got.frequent.iter().eq(want.frequent.iter()),
            "{} diverged",
            algorithm.name()
        );
    }
}

/// A plan built from the rows of a `k`-strided arena, as the parallel
/// drivers build theirs from `C_k`, is the plan built from the boxed list of
/// the same candidates: the same filters and imbalance, and `owns` takes
/// the same rows. Seeded; `k` from 2 to 5, first items
/// skewed toward small ids so that two-level plans split some of them,
/// round-robin, first-item and two-level plans at several split
/// thresholds, uniform and skewed capacities.
#[test]
fn plans_from_arena_rows_equal_plans_from_item_sets() {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(30);
    let universe = 24u32;
    for k in 2..=5usize {
        for _ in 0..6 {
            let raw: Vec<Vec<u32>> = (0..rng.gen_range(1..150))
                .map(|_| {
                    let mut ids = std::collections::BTreeSet::new();
                    while ids.len() < k {
                        ids.insert(rng.gen_range(0..universe).min(rng.gen_range(0..universe)));
                    }
                    ids.into_iter().collect()
                })
                .collect();
            let cands = to_itemsets(&raw);
            let arena: Vec<Item> = cands.iter().flat_map(ItemSet::items).copied().collect();
            let rows = || arena.chunks_exact(k);
            let procs = rng.gen_range(1..7);
            for skewed in [false, true] {
                let capacities: Vec<f64> = (0..procs)
                    .map(|_| match skewed {
                        true => f64::from(rng.gen_range(1u32..6)) / 2.0,
                        false => 1.0,
                    })
                    .collect();
                let mut plans = vec![
                    (
                        partition_round_robin(&cands, procs),
                        partition_round_robin(rows(), procs),
                    ),
                    (
                        partition_by_first_item(&cands, universe, &capacities),
                        partition_by_first_item(rows(), universe, &capacities),
                    ),
                ];
                for threshold in [0, 1, 4, 16, 64] {
                    plans.push((
                        partition_two_level(&cands, universe, &capacities, threshold),
                        partition_two_level(rows(), universe, &capacities, threshold),
                    ));
                }
                let on = format!("k={k}, {} candidates, P={procs}", cands.len());
                for (boxed, from_rows) in &plans {
                    assert_eq!(from_rows.filters, boxed.filters, "{on}");
                    assert_eq!(from_rows.imbalance, boxed.imbalance, "{on}");
                    for proc in 0..procs {
                        let by_rows: Vec<bool> = (rows().enumerate())
                            .map(|(i, row)| from_rows.owns(proc, i, row))
                            .collect();
                        let by_sets: Vec<bool> = (cands.iter().enumerate())
                            .map(|(i, set)| boxed.owns(proc, i, set.items()))
                            .collect();
                        assert_eq!(by_rows, by_sets, "{on}, proc {proc}");
                    }
                }
            }
        }
    }
}
