//! Cross-backend equivalence of the [`CandidateCounter`] seam: the hash
//! tree, the candidate trie, the vertical (tidlist) counter, and
//! brute-force subset containment must agree exactly — on full counts,
//! under ownership filters, and end-to-end through every parallel
//! formulation on both the simulated and the native execution backend.

use armine::core::binpack::{partition_by_first_item, partition_round_robin, partition_two_level};
use armine::core::candidates::Candidates;
use armine::core::counter::{CandidateCounter, CounterBackend, CounterStats};
use armine::core::hashtree::{HashTree, HashTreeParams, OwnershipFilter};
use armine::core::rules::generate_rules;
use armine::core::stable_hash::owner_of;
use armine::core::{Item, ItemSet, Transaction};
use armine::datagen::QuestParams;
use armine::mpsim::ExecBackend;
use armine::parallel::{Algorithm, ParallelMiner, ParallelParams};
use proptest::prelude::*;
use rand::prelude::*;
use std::collections::BTreeSet;

mod common;
use common::{arb_candidate, arb_transaction, shares, to_itemsets, to_transactions};

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
            if !filter.owns(c.items()) {
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
            for (mine, filter) in shares(&part, &cands).iter().zip(&part.filters) {
                let mut counter = backend.build(2, HashTreeParams::default(), mine.clone());
                counter.count_all(&txs, filter);
                let want = brute_force(mine, &txs, filter);
                prop_assert_eq!(
                    counter.count_vector(), want.clone(), "backend {}", backend.name()
                );
                for (c, w) in mine.iter().zip(&want) {
                    prop_assert_eq!(counter.count_of(c), Some(*w), "{}", c);
                }
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
        let cands: Vec<ItemSet> = k_sets((0..universe).map(Item).collect(), k)
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
        let shares = shares(&part, &cands);
        for (mine, filter) in shares.iter().zip(&part.filters).chain([whole]) {
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

    /// The narrow-deep shape (`dense_default`'s): 24 items, transactions
    /// that hold a third to nearly all of them, candidates of size 4 to 7
    /// cut from random 7-sets, so most checked candidates share items with
    /// the transaction. Counted whole and as three ranks' first-item shares.
    #[test]
    fn backends_equal_brute_force_on_narrow_deep_passes(
        sevens in prop::collection::vec(arb_candidate(24, 7), 1..60),
        long in prop::collection::vec(prop::collection::btree_set(0..24u32, 8..=22), 1..30),
        short in prop::collection::vec(arb_transaction(24, 7), 0..6),
        k in 4usize..8,
    ) {
        let raw_cands: Vec<Vec<u32>> = sevens
            .iter()
            .enumerate()
            .map(|(i, ids)| ids[i % (8 - k)..][..k].to_vec())
            .collect();
        let cands = to_itemsets(&raw_cands);
        let raw_txs: Vec<Vec<u32>> = long
            .iter()
            .map(|t| t.iter().copied().collect())
            .chain(short.iter().cloned())
            .collect();
        let txs = to_transactions(&raw_txs);
        let part = partition_by_first_item(&cands, 24, &[1.0; 3]);
        let whole = (&cands, &OwnershipFilter::all());
        let shares = shares(&part, &cands);
        for (mine, filter) in shares.iter().zip(&part.filters).chain([whole]) {
            let want = brute_force(mine, &txs, filter);
            for backend in CounterBackend::ALL {
                let mut counter = backend.build(k, HashTreeParams::default(), mine.clone());
                counter.count_all(&txs, filter);
                prop_assert_eq!(
                    counter.count_vector(), want.clone(), "k={} backend {}", k, backend.name()
                );
            }
        }
    }
}

/// The two backends whose pass 2 [`CounterBackend::build`] routes through
/// the direct pair table.
const PAIR_TABLE_BACKENDS: [CounterBackend; 2] = [CounterBackend::Trie, CounterBackend::Vertical];

/// Every `k`-subset of `items` (any order), boxed, in lexicographic order.
fn k_sets(items: Vec<Item>, k: usize) -> Vec<ItemSet> {
    let mut sets = Vec::new();
    Transaction::new(0, items).for_each_k_subset(k, |set| {
        sets.push(ItemSet::from_sorted(set.to_vec()));
    });
    sets
}

/// `F₁` for the pass-2 tests: the odd ids 3..=61, so every even id and
/// every id above 61 is outside the candidates' universe.
fn odd_items() -> Vec<Item> {
    (3..62).step_by(2).map(Item).collect()
}

/// Seeded transactions over ids 0..70 and the far-off id 5000: some empty,
/// some with a single item, most mixing `F₁` items with outsiders.
fn pass2_transactions() -> Vec<Transaction> {
    let mut rng = StdRng::seed_from_u64(1997);
    (0..300u64)
        .map(|tid| {
            let len = rng.gen_range(0..=16usize);
            let mut ids: Vec<u32> = (0..70).chain([5000]).collect();
            ids.shuffle(&mut rng);
            Transaction::new(tid, ids[..len].iter().map(|&id| Item(id)).collect())
        })
        .collect()
}

/// Pass 2 through the seam, for every shape of `C₂` share the parallel
/// formulations hand a rank: all of `F₁ × F₁`, a first-item partition, a
/// partition with split first items and DD's contiguous chunks. Both
/// pair-table backends must equal brute force in counts, in `count_of`,
/// and in the row order of `frequent`.
#[test]
fn pass2_equals_brute_force_on_every_share_shape() {
    let full = k_sets(odd_items(), 2);
    let txs = pass2_transactions();
    assert!(txs.iter().any(|t| t.len() < 2) && txs.iter().any(|t| t.contains(Item(5000))));
    let capacities = [1.0, 1.0, 1.0];
    let by_first = partition_by_first_item(&full, 64, &capacities);
    let two_level = partition_two_level(&full, 64, &capacities, 20);
    let (by_first_shares, two_level_shares) = (shares(&by_first, &full), shares(&two_level, &full));
    let split_firsts = two_level_shares
        .iter()
        .flat_map(|part| part.iter().map(|c| c.first()).collect::<BTreeSet<_>>())
        .count();
    assert!(
        split_firsts > odd_items().len() - 1,
        "no first item was split"
    );

    let all = OwnershipFilter::all();
    let mut shares: Vec<(&str, &[ItemSet], &OwnershipFilter)> = vec![("full", &full, &all)];
    shares.extend(
        by_first_shares
            .iter()
            .zip(&by_first.filters)
            .map(|(p, f)| ("first-item", &p[..], f)),
    );
    shares.extend(
        two_level_shares
            .iter()
            .zip(&two_level.filters)
            .map(|(p, f)| ("two-level", &p[..], f)),
    );
    // 100 does not divide a row boundary: each chunk's first row starts
    // above its first item's own rank + 1.
    shares.extend(full.chunks(100).map(|chunk| ("dd-chunk", chunk, &all)));

    for (shape, offered, filter) in shares {
        let want = brute_force(offered, &txs, filter);
        let want_frequent: Vec<(ItemSet, u64)> = offered
            .iter()
            .cloned()
            .zip(want.iter().copied())
            .filter(|&(_, count)| count >= 2)
            .collect();
        for backend in PAIR_TABLE_BACKENDS {
            let mut counter = backend.build(2, HashTreeParams::default(), offered.to_vec());
            assert_eq!(counter.stats().inserts, offered.len() as u64, "{shape}");
            assert_eq!(counter.num_candidates(), offered.len(), "{shape}");
            counter.count_all(&txs, filter);
            assert_eq!(
                counter.count_vector(),
                want,
                "{shape} on {}",
                backend.name()
            );
            assert_eq!(
                counter.frequent(2),
                want_frequent,
                "{shape} on {}",
                backend.name()
            );
            for (c, w) in offered.iter().zip(&want) {
                assert_eq!(counter.count_of(c), Some(*w), "{shape}: {c}");
            }
            assert_eq!(counter.count_of(&ItemSet::from([4, 5])), None);
            assert_eq!(
                counter.stats().intersection_words,
                0,
                "{shape}: {} did not build the pair table",
                backend.name()
            );
        }
    }
}

/// A share of `C₂` as a driver reads it: a range of its rows and the
/// rank's predicate, with the filter its counter counts under.
type Share<'a> = (
    String,
    std::ops::Range<usize>,
    Box<dyn Fn(usize, &[Item]) -> bool + 'a>,
    OwnershipFilter,
);

/// Every shape of share the drivers cut from `C₂`: all of it (CD, NPA),
/// contiguous slot ranges (CD under a memory capacity), first-item bitmap
/// shares (IDD, HD), two-level shares with split first items, round-robin
/// shares (DD), hash-owned shares (HPA) and bucket-pruned survivors (PDM).
/// `partitioned` leaves out the bitmap partitions, which cost a bit per
/// item id of the universe.
fn every_share<'a>(c2: &'a Candidates, txs: &[Transaction], partitioned: bool) -> Vec<Share<'a>> {
    let (procs, len) = (3, c2.len());
    let all = OwnershipFilter::all;
    let mut out: Vec<Share<'a>> = vec![("all".into(), 0..len, Box::new(|_, _| true), all())];
    for start in (0..len).step_by(7) {
        let range = start..len.min(start + 7);
        out.push((
            format!("slots {range:?}"),
            range,
            Box::new(|_, _| true),
            all(),
        ));
    }
    let rows = || c2.rows(0..len);
    let universe = rows()
        .map(|row| row.as_ref()[1].id() + 1)
        .max()
        .unwrap_or(0);
    let capacities = vec![1.0; procs];
    let mut plans = vec![("round-robin", partition_round_robin(rows(), procs))];
    if partitioned {
        plans.push((
            "first-item",
            partition_by_first_item(rows(), universe, &capacities),
        ));
        plans.push((
            "two-level",
            partition_two_level(rows(), universe, &capacities, 3),
        ));
    }
    for (name, plan) in plans {
        let plan = std::rc::Rc::new(plan);
        for proc in 0..procs {
            let filter = plan.filters[proc].clone();
            let plan = std::rc::Rc::clone(&plan);
            let keep = Box::new(move |r: usize, row: &[Item]| plan.owns(proc, r, row));
            out.push((format!("{name} {proc}"), 0..len, keep, filter));
        }
    }
    for proc in 0..procs {
        let keep = Box::new(move |_: usize, row: &[Item]| owner_of(row, procs) == proc);
        out.push((format!("hash-owned {proc}"), 0..len, keep, all()));
    }
    let buckets = 4099;
    let mut table = vec![0u64; buckets];
    for t in txs {
        t.for_each_k_subset(2, |pair| table[owner_of(pair, buckets)] += 1);
    }
    let survives = Box::new(move |_: usize, row: &[Item]| table[owner_of(row, buckets)] >= 3);
    out.push(("bucket-pruned".into(), 0..len, survives, all()));
    out
}

/// The pair table built from `F₁` and a share — no pair written down —
/// against brute force, against `--counter trie` over the share's rows,
/// and against the same backend built from those rows (counts, `count_of`,
/// `frequent`'s order and the whole ledger), on every share shape a driver
/// cuts, for |F₁| from 0 up. With an `F₁` item at [`Item::MAX_ID`] the pair
/// table is declined and each backend's own structure counts (held to that
/// structure built directly by `armine-core`'s unit test
/// `pair_table_matches_the_trie_and_a_declined_one_is_the_backends_own`).
#[test]
fn pair_table_from_f1_and_a_share_matches_brute_force_and_the_trie() {
    let txs = pass2_transactions();
    let top = Item(Item::MAX_ID);
    let mut f1s: Vec<(Vec<Item>, bool)> =
        (0..=3).map(|n| (odd_items()[..n].to_vec(), true)).collect();
    f1s.push((odd_items(), true));
    f1s.push((vec![Item(3), Item(9), Item(40), top], false));
    let with_top: Vec<Transaction> = txs
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let extra = (i % 3 == 0).then_some(top);
            Transaction::new(t.tid(), t.items().iter().copied().chain(extra).collect())
        })
        .collect();
    let tree = HashTreeParams::default();
    for (f1, partitioned) in f1s {
        let txs = if partitioned { &txs } else { &with_top };
        let c2 = Candidates::pairs(f1.clone());
        assert_eq!(c2.len(), f1.len() * f1.len().saturating_sub(1) / 2);
        for (shape, range, keep, filter) in every_share(&c2, txs, partitioned) {
            let on = format!("|F1| = {}, {shape}", f1.len());
            let rows: Vec<ItemSet> = range
                .clone()
                .zip(c2.rows(range.clone()))
                .filter(|(r, row)| keep(*r, row.as_ref()))
                .map(|(_, row)| ItemSet::from_sorted(row.as_ref().to_vec()))
                .collect();
            if shape == "bucket-pruned" && f1 == odd_items() {
                assert!(
                    !rows.is_empty() && rows.len() < c2.len(),
                    "{on}: {}",
                    rows.len()
                );
            }
            let want = brute_force(&rows, txs, &filter);
            let mut trie = CounterBackend::Trie.build(2, tree, &rows);
            trie.count_all(txs, &filter);
            assert_eq!(trie.count_vector(), want, "{on}: the trie");
            for backend in CounterBackend::ALL {
                let on = format!("{on} on {}", backend.name());
                let mut share = backend.build_share(tree, &c2, range.clone(), &keep);
                let mut given = backend.build(2, tree, &rows);
                assert_eq!(share.stats().inserts, rows.len() as u64, "{on}");
                for counter in [&mut share, &mut given] {
                    counter.count_all(txs, &filter);
                }
                assert_eq!(share.count_vector(), want, "{on}");
                assert_eq!(share.stats(), given.stats(), "{on}: the ledger moved");
                assert_eq!(share.frequent(2), trie.frequent(2), "{on}");
                assert_eq!(share.frequent(0), given.frequent(0), "{on}");
                for (set, &count) in rows.iter().zip(&want) {
                    assert_eq!(share.count_of(set), Some(count), "{on}: {set}");
                }
                assert_eq!(share.count_of(&ItemSet::from([4, 6])), None, "{on}");
            }
        }
    }
}

/// Candidates scattered over a universe far larger than their number take
/// the fallback: each backend builds its own structure (told apart by the
/// ledger) and the counts are the same.
#[test]
fn sparse_pass2_candidates_fall_back_to_the_backends_own_structure() {
    let cands: Vec<ItemSet> = (0..20u32)
        .map(|i| ItemSet::from([i, 1000 + 50 * i]))
        .collect();
    let txs = to_transactions(&[
        vec![0, 1, 2, 1000, 1050],
        vec![1, 1050],
        vec![1050],
        vec![19, 1950, 1951],
        vec![2, 3, 4, 5],
    ]);
    let all = OwnershipFilter::all();
    let want = brute_force(&cands, &txs, &all);
    assert_eq!(want.iter().sum::<u64>(), 4);
    let item_occurrences: u64 = txs.iter().map(|t| t.len() as u64).sum();
    for backend in PAIR_TABLE_BACKENDS {
        let mut counter = backend.build(2, HashTreeParams::default(), cands.clone());
        counter.count_all(&txs, &all);
        assert_eq!(counter.count_vector(), want, "backend {}", backend.name());
        let stats = counter.stats();
        match backend {
            CounterBackend::Vertical => assert!(stats.intersection_words > 0),
            // The trie steps once per matched child; the pair table would
            // have stepped once per item of every transaction it ranked.
            _ => assert!(stats.traversal_steps < item_occurrences),
        }
    }
}

/// The pair table's ledger, pinned: one `traversal_steps` per item of a
/// transaction with at least two items and one per probe inside a row's
/// span, `distinct_leaf_visits` = `candidate_checks` = increments,
/// `inserts` = candidates offered, no `intersection_words`. And the
/// seam's ordering guarantees: `count_vector`, `counts_mut` and
/// `frequent` index the candidates in row order.
#[test]
fn pass2_ledger_and_insertion_order_are_pinned() {
    // Ranks 1→0, 3→1, 4→2, 5→3. Row of 1 spans {3, 4, 5} with a hole at
    // {1, 4}: sparse, a cell each. Rows of 3 and 4 hold one pair each, a
    // full span: dense.
    let offered: Vec<ItemSet> = [[1, 3], [1, 5], [3, 4], [4, 5]]
        .into_iter()
        .map(ItemSet::from)
        .collect();
    let txs = to_transactions(&[
        vec![1, 2, 3, 4], // 4 items; probes {1,3} hit, {1,4} hole, {3,4} hit
        vec![1, 4, 5, 9], // 4 items; probes {1,4} hole, {1,5} hit, {4,5} hit
        vec![3],          // shorter than 2: a transaction, nothing else
        vec![3, 5],       // 2 items; {3,5} is outside row 3's span: no probe
        vec![1, 3],       // 2 items; probe {1,3} hit
    ]);
    for backend in PAIR_TABLE_BACKENDS {
        let mut counter = backend.build(2, HashTreeParams::default(), offered.clone());
        assert_eq!(counter.num_candidates(), 4);
        counter.count_all(&txs, &OwnershipFilter::all());
        assert_eq!(
            counter.stats(),
            CounterStats {
                inserts: 4,
                transactions: 5,
                root_starts: 6,
                traversal_steps: (4 + 4 + 2 + 2) + (3 + 3 + 1),
                distinct_leaf_visits: 5,
                candidate_checks: 5,
                intersection_words: 0,
            },
            "backend {}",
            backend.name()
        );
        assert_eq!(counter.count_vector(), vec![2, 1, 1, 1]);
        counter.counts_mut().copy_from_slice(&[9, 0, 7, 2]);
        assert_eq!(counter.count_vector(), vec![9, 0, 7, 2]);
        assert_eq!(
            counter.frequent(2),
            vec![
                (ItemSet::from([1, 3]), 9),
                (ItemSet::from([3, 4]), 7),
                (ItemSet::from([4, 5]), 2)
            ]
        );
        assert_eq!(counter.count_of(&ItemSet::from([1, 5])), Some(0));
        assert_eq!(counter.count_of(&ItemSet::from([1, 4])), None);
    }
}

/// The hash tree's pass 2 as `CounterBackend` builds it — the pair table
/// counting, the tree's shape walked for the ledger — against the full
/// tree (`HashTree::build`, its leaves scored): the seven ledger fields,
/// `count_vector`, `frequent` and `count_of` are equal on every share a
/// driver cuts from `C₂` ([`every_share`]: all of it, memory-capped
/// contiguous chunks, DD's round-robin sparse rows, first-item and
/// two-level shares, hash-owned and bucket-pruned ones), each counted
/// under `all` and under the filter that owns it, for the sized and the
/// pinned fan-out, over an `F₁` whose tree stays narrow and one wide
/// enough to widen the sized fan-out. The full tree's count of a
/// candidate its filter does not own depends on which hash buckets
/// collide, so no share here holds one; no driver builds one either.
#[test]
fn pass2_hash_tree_counts_and_charges_what_the_full_tree_does() {
    let mut rng = StdRng::seed_from_u64(42);
    let wide: Vec<Item> = (0..160).map(|i| Item(2 * i + 1)).collect();
    let wide_txs: Vec<Transaction> = (0..400u64)
        .map(|tid| {
            let len = rng.gen_range(0..=24usize);
            let ids: BTreeSet<u32> = (0..len).map(|_| rng.gen_range(0..330)).collect();
            Transaction::new(tid, ids.into_iter().map(Item).collect())
        })
        .collect();
    let narrow_txs = pass2_transactions();
    let pinned = HashTreeParams {
        branching: 8,
        max_leaf: 16,
    };
    let all = OwnershipFilter::all();
    for (f1, txs) in [(odd_items(), &narrow_txs), (wide, &wide_txs)] {
        let c2 = Candidates::pairs(f1.clone());
        for (shape, range, keep, own) in every_share(&c2, txs, true) {
            let owned: Vec<ItemSet> = range
                .clone()
                .zip(c2.rows(range.clone()))
                .filter(|(r, row)| keep(*r, row.as_ref()))
                .map(|(_, row)| ItemSet::from_sorted(row.as_ref().to_vec()))
                .collect();
            assert!(!owned.is_empty(), "{shape}: an empty share");
            for tree in [HashTreeParams::default(), pinned] {
                for filter in [&all, &own] {
                    let on = format!("|F1| = {}, {shape}, {tree:?}, {filter:?}", f1.len());
                    let mut full = HashTree::build(2, tree, owned.clone());
                    let mut share =
                        CounterBackend::HashTree.build_share(tree, &c2, range.clone(), &keep);
                    let mut given = CounterBackend::HashTree.build(2, tree, &owned);
                    full.count_all(txs, filter);
                    for counter in [&mut share, &mut given] {
                        counter.count_all(txs, filter);
                        assert_eq!(counter.stats(), full.stats(), "{on}");
                        assert_eq!(counter.count_vector(), full.count_vector(), "{on}");
                        assert_eq!(counter.frequent(2), full.frequent(2), "{on}");
                        for set in &owned {
                            assert_eq!(counter.count_of(set), full.count_of(set), "{on}: {set}");
                        }
                        assert_eq!(counter.count_of(&ItemSet::from([4, 6])), None, "{on}");
                    }
                    assert!(full.stats().candidate_checks > 0, "{on}: nothing checked");
                }
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
