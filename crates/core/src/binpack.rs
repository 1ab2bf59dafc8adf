//! Candidate partitioning for the distributed-candidate algorithms.
//!
//! DD partitions candidates round-robin; IDD partitions them by **first
//! item** using bin packing so every processor gets (a) roughly the same
//! number of candidates and (b) a compact first-item ownership bitmap for
//! root filtering (Section III-C). When too many candidates share one first
//! item (more than `M/P`, increasingly likely as `P` grows), the paper's
//! refinement splits that item by **second** item; `partition_two_level`
//! implements it. A partitioner returns a plan, not lists: each processor
//! picks its share out of the one candidate set by
//! [`CandidatePartition::owns`]. Partitioners read a pass's [`Candidates`]:
//! round-robin its length, the packers its first-item histogram (from
//! `F₁ × F₁`'s row lengths, or one read per arena row); plans read rows.
//!
//! The packer is the classic Longest-Processing-Time greedy (the paper
//! cites bin-packing [Papadimitriou & Steiglitz]; LPT's 4/3 bound is ample
//! here — the paper itself reports 1.3–2.3% candidate imbalance).

use crate::bitmap::ItemBitmap;
use crate::candidates::Candidates;
use crate::hashtree::OwnershipFilter;
use crate::item::Item;
use std::collections::HashSet;

/// The result of packing weighted units into bins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Packing {
    /// `assignment[u]` = bin of unit `u`.
    pub(crate) assignment: Vec<usize>,
    /// Total weight per bin.
    pub(crate) loads: Vec<u64>,
}

impl Packing {
    /// Relative load imbalance: `max/avg − 1` over non-zero totals, 0 for
    /// an empty packing. The paper reports this metric (1.3% at P=4, 2.3%
    /// at P=8 for candidate counts). The average runs over **non-empty**
    /// bins, so a packing where one bin holds everything and the rest are
    /// unused (e.g. more processors than first-item groups) reports 0, not
    /// `P − 1`.
    pub(crate) fn imbalance(&self) -> f64 {
        let total: u64 = self.loads.iter().sum();
        if total == 0 || self.loads.is_empty() {
            return 0.0;
        }
        let nonempty = self.loads.iter().filter(|&&l| l > 0).count();
        let avg = total as f64 / nonempty as f64;
        let max = *self.loads.iter().max().unwrap() as f64;
        max / avg - 1.0
    }
}

/// Longest-Processing-Time greedy packing: sort units by weight descending,
/// repeatedly assign to the least-loaded bin. Deterministic: ties broken by
/// unit index then bin index.
pub(crate) fn pack_lpt(weights: &[u64], bins: usize) -> Packing {
    assert!(bins > 0, "need at least one bin");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&u| (std::cmp::Reverse(weights[u]), u));
    let mut loads = vec![0u64; bins];
    let mut assignment = vec![0usize; weights.len()];
    for u in order {
        let bin = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i)
            .unwrap();
        assignment[u] = bin;
        loads[bin] += weights[u];
    }
    Packing { assignment, loads }
}

/// Capacity-aware LPT: bins have relative capacities (speeds) and each
/// unit goes to the bin with the **earliest projected finish time**
/// `(load + weight) / capacity` — the heterogeneous generalization of
/// least-loaded-first, greedily steering the heaviest units to the
/// effectively fastest bins. Deterministic: ties broken by unit index
/// then bin index.
///
/// With **uniform** capacities this is exactly [`pack_lpt`], bit for bit:
/// the uniform case is detected and routed through the integer
/// `(load, bin)` comparison, so no float division can perturb a
/// homogeneous packing.
pub(crate) fn pack_lpt_weighted(weights: &[u64], capacities: &[f64]) -> Packing {
    assert!(!capacities.is_empty(), "need at least one bin");
    assert!(
        capacities.iter().all(|&c| c.is_finite() && c > 0.0),
        "capacities must be finite and positive: {capacities:?}"
    );
    if capacities.windows(2).all(|w| w[0] == w[1]) {
        return pack_lpt(weights, capacities.len());
    }
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&u| (std::cmp::Reverse(weights[u]), u));
    let mut loads = vec![0u64; capacities.len()];
    let mut assignment = vec![0usize; weights.len()];
    for u in order {
        let w = weights[u];
        let bin = loads
            .iter()
            .enumerate()
            .map(|(i, &l)| (((l + w) as f64 / capacities[i], i), i))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite finish times"))
            .map(|(_, i)| i)
            .unwrap();
        assignment[u] = bin;
        loads[bin] += w;
    }
    Packing { assignment, loads }
}

/// A plan for partitioning a candidate set across `P` processors: the
/// ownership filter each processor applies at the hash-tree root, and the
/// balance of the shares. The plan holds no candidates — a processor
/// picks its own share by [`CandidatePartition::owns`] and nobody else's.
/// Every candidate falls in exactly one share.
#[derive(Debug, Clone)]
pub struct CandidatePartition {
    /// Per-processor root filters (bitmap or two-level).
    pub filters: Vec<OwnershipFilter>,
    /// Candidate-count imbalance of the packing (`max/avg − 1`).
    pub imbalance: f64,
    /// Round-robin plans have no ownership structure (every filter is
    /// [`OwnershipFilter::all`]); their shares are cut by position.
    by_position: bool,
}

impl CandidatePartition {
    /// The replicated plan (CD, NPA, PDM): one share of every candidate.
    pub fn whole() -> Self {
        CandidatePartition {
            filters: vec![OwnershipFilter::all()],
            imbalance: 0.0,
            by_position: false,
        }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.filters.len()
    }

    /// Whether processor `proc`'s share holds `candidate`, found at
    /// `position` in the candidate set the plan was made for (item sets,
    /// or the rows of a `k`-strided arena). Round-robin: the stride
    /// `proc, proc + P, …`; otherwise the candidates `filters[proc]` owns.
    pub fn owns(&self, proc: usize, position: usize, candidate: &[Item]) -> bool {
        if self.by_position {
            position % self.num_procs() == proc
        } else {
            self.filters[proc].owns(candidate)
        }
    }

    /// Whether processor `proc` owns every candidate starting with
    /// `first` (`Some(true)`) or none of them (`Some(false)`); `None` when
    /// [`owns`](Self::owns) must be asked candidate by candidate (a
    /// round-robin plan, or a split first item).
    pub fn owns_from(&self, proc: usize, first: Item) -> Option<bool> {
        let owned = self.filters[proc].owns_from(first);
        owned.filter(|_| !self.by_position)
    }
}

/// Counts, for each possible first item, how many of `candidates` start
/// with it — the statistic the IDD bin-packing partitioner consumes. The
/// paper notes candidates need not be stored for this; only the counts.
/// `F₁ × F₁` holds them already: its `i`-th item starts `|F₁| − 1 − i`
/// pairs. An arena is read once per row.
fn first_item_histogram(candidates: &Candidates, num_items: u32) -> Vec<u64> {
    let mut hist = vec![0u64; num_items as usize];
    match candidates.pair_items() {
        // Counted from the last item, which starts no pair.
        Some(f1) => (f1.iter().rev().zip(0..).skip(1)).for_each(|(i, n)| hist[i.index()] = n),
        None => (candidates.rows(0..candidates.len()))
            .for_each(|row| hist[row.as_ref()[0].index()] += 1),
    }
    hist
}

/// DD's round-robin partition of `num_candidates` candidates: candidate
/// `i` goes to processor `i mod P`. No ownership filter exists (DD cannot
/// prune at the root — that is its redundant-work problem).
pub fn partition_round_robin(num_candidates: usize, p: usize) -> CandidatePartition {
    assert!(p > 0);
    let n = num_candidates;
    let loads = (0..p).map(|i| (n / p + usize::from(i < n % p)) as u64);
    let imbalance = Packing {
        assignment: Vec::new(),
        loads: loads.collect(),
    }
    .imbalance();
    CandidatePartition {
        filters: (0..p).map(|_| OwnershipFilter::all()).collect(),
        imbalance,
        by_position: true,
    }
}

/// IDD's partition: bin-pack first items by their candidate counts so each
/// processor owns whole first-item groups of roughly equal total size
/// (scaled by its relative `capacity` — faster processors get heavier
/// shares), and give each processor the matching bitmap filter. Uniform
/// capacities reproduce the classic equal-share packing bit for bit.
pub fn partition_by_first_item(
    candidates: &Candidates,
    num_items: u32,
    capacities: &[f64],
) -> CandidatePartition {
    let p = capacities.len();
    assert!(p > 0);
    let hist = first_item_histogram(candidates, num_items);
    // Pack only items that actually start candidates.
    let active: Vec<u32> = (0..num_items).filter(|&i| hist[i as usize] > 0).collect();
    let weights: Vec<u64> = active.iter().map(|&i| hist[i as usize]).collect();
    let packing = pack_lpt_weighted(&weights, capacities);
    let mut owned = vec![ItemBitmap::new(num_items); p];
    for (&item, &proc) in active.iter().zip(&packing.assignment) {
        owned[proc].insert(Item(item));
    }
    CandidatePartition {
        filters: owned.into_iter().map(OwnershipFilter::first_item).collect(),
        imbalance: packing.imbalance(),
        by_position: false,
    }
}

/// The two-level refinement: first items whose candidate count exceeds
/// `split_threshold` are split by second item, so a single hot first item
/// can be spread over several processors. Candidates must have at least two
/// items (the refinement only matters for k ≥ 2 passes). Only the rows of
/// the split first items are read, for their (first, second) counts: the
/// rows are ascending, so a first item's rows are the run the histogram
/// places them at.
pub fn partition_two_level(
    candidates: &Candidates,
    num_items: u32,
    capacities: &[f64],
    split_threshold: u64,
) -> CandidatePartition {
    let p = capacities.len();
    assert!(p > 0);
    assert!(
        candidates.k() >= 2,
        "two-level partitioning requires candidates of size >= 2"
    );
    let hist = first_item_histogram(candidates, num_items);

    /// A packable unit: a whole first-item group, or one (first, second)
    /// subgroup of a split first item.
    #[derive(Clone, Copy, PartialEq)]
    enum Unit {
        First(Item),
        Pair(Item, Item),
    }

    let mut units: Vec<Unit> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    let split = |item: u32| hist[item as usize] > split_threshold;
    // Whole groups.
    for item in 0..num_items {
        let c = hist[item as usize];
        if c > 0 && !split(item) {
            units.push(Unit::First(Item(item)));
            weights.push(c);
        }
    }
    // Split groups: one unit per (first, second) pair, ascending, from the
    // runs of equal second items in each split first item's rows.
    let mut at = 0;
    for item in 0..num_items {
        let rows = at..at + hist[item as usize] as usize;
        at = rows.end;
        if !split(item) {
            continue;
        }
        for row in candidates.rows(rows) {
            let unit = Unit::Pair(Item(item), row.as_ref()[1]);
            if units.last() == Some(&unit) {
                *weights.last_mut().expect("a weight per unit") += 1;
            } else {
                units.push(unit);
                weights.push(1);
            }
        }
    }

    let packing = pack_lpt_weighted(&weights, capacities);
    let mut owned = vec![(ItemBitmap::new(num_items), HashSet::new()); p];
    for (unit, &proc) in units.iter().zip(&packing.assignment) {
        match *unit {
            Unit::First(i) => owned[proc].0.insert(i),
            Unit::Pair(f, s) => {
                owned[proc].1.insert((f, s));
            }
        }
    }
    let two_level = |(first, pairs)| OwnershipFilter::two_level(first, pairs);
    CandidatePartition {
        filters: owned.into_iter().map(two_level).collect(),
        imbalance: packing.imbalance(),
        by_position: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::ItemSet;
    use proptest::prelude::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    #[test]
    fn lpt_balances_simple_weights() {
        // LPT on [5,5,4,3,3] with 2 bins: 5|5, 4→bin0, 3→bin1, 3→bin1
        // giving 9/11 (LPT is a 4/3-approximation, not optimal).
        let p = pack_lpt(&[5, 5, 4, 3, 3], 2);
        assert_eq!(p.loads.iter().sum::<u64>(), 20);
        assert!(*p.loads.iter().max().unwrap() <= 11);
        assert!(p.imbalance() <= 0.1 + 1e-9);
        // A perfectly splittable instance does pack perfectly.
        let q = pack_lpt(&[4, 3, 3, 2, 2, 2], 2);
        assert_eq!(*q.loads.iter().max().unwrap(), 8);
        assert!(q.imbalance() < 1e-9);
    }

    #[test]
    fn lpt_is_deterministic() {
        let w = vec![7, 7, 7, 1, 2, 3];
        assert_eq!(pack_lpt(&w, 3), pack_lpt(&w, 3));
    }

    #[test]
    fn lpt_empty_and_degenerate() {
        let p = pack_lpt(&[], 3);
        assert_eq!(p.loads, vec![0, 0, 0]);
        assert_eq!(p.imbalance(), 0.0);
        let single = pack_lpt(&[10], 4);
        assert_eq!(single.loads.iter().sum::<u64>(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn lpt_zero_bins_panics() {
        pack_lpt(&[1], 0);
    }

    #[test]
    fn imbalance_metric() {
        let p = Packing {
            assignment: vec![],
            loads: vec![30, 10, 20],
        };
        // avg 20, max 30 → 50%.
        assert!((p.imbalance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn imbalance_averages_over_nonempty_bins() {
        // All-but-one-empty: one bin holds everything, so among the bins
        // actually in use the packing is perfectly balanced. The old
        // formula divided by the total bin count and reported P − 1.
        let p = Packing {
            assignment: vec![],
            loads: vec![0, 0, 30, 0],
        };
        assert_eq!(p.imbalance(), 0.0);
        // Mixed: non-empty loads [30, 10] → avg 20, max 30 → 50%,
        // regardless of how many empty bins ride along.
        let q = Packing {
            assignment: vec![],
            loads: vec![30, 0, 10, 0, 0],
        };
        assert!((q.imbalance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_uniform_capacities_reproduce_lpt_exactly() {
        for weights in [
            vec![5, 5, 4, 3, 3],
            vec![7, 7, 7, 1, 2, 3],
            vec![1000, 999, 1, 1, 1, 1, 1],
            vec![],
        ] {
            for bins in [1usize, 2, 3, 7] {
                let caps = vec![1.0; bins];
                assert_eq!(pack_lpt_weighted(&weights, &caps), pack_lpt(&weights, bins));
                // Any uniform value, not just 1.0.
                let caps = vec![2.5; bins];
                assert_eq!(pack_lpt_weighted(&weights, &caps), pack_lpt(&weights, bins));
            }
        }
    }

    #[test]
    fn weighted_capacities_skew_loads_toward_fast_bins() {
        // A 2×-capacity bin should absorb about twice the weight.
        let weights = vec![1u64; 90];
        let p = pack_lpt_weighted(&weights, &[2.0, 1.0]);
        assert_eq!(p.loads.iter().sum::<u64>(), 90);
        assert_eq!(p.loads, vec![60, 30]);
        // The heaviest unit lands on the fastest bin first.
        let q = pack_lpt_weighted(&[10, 1], &[1.0, 4.0]);
        assert_eq!(q.assignment[0], 1);
    }

    #[test]
    fn weighted_packing_is_deterministic() {
        let w = vec![7, 7, 7, 1, 2, 3];
        let caps = [1.0, 0.5, 2.0];
        assert_eq!(pack_lpt_weighted(&w, &caps), pack_lpt_weighted(&w, &caps));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn weighted_rejects_bad_capacities() {
        pack_lpt_weighted(&[1], &[1.0, 0.0]);
    }

    /// Strictly ascending item sets of one size as the arena of a `C_k`.
    fn arena(cands: &[ItemSet]) -> Candidates {
        let k = cands.first().map_or(1, ItemSet::len);
        Candidates::from_arena(k, cands.iter().flat_map(ItemSet::items).copied().collect())
    }

    fn sample_candidates() -> Vec<ItemSet> {
        // First-item histogram: item 0 → 4 candidates, 1 → 2, 2 → 1, 5 → 1.
        vec![
            set(&[0, 1]),
            set(&[0, 2]),
            set(&[0, 3]),
            set(&[0, 5]),
            set(&[1, 2]),
            set(&[1, 4]),
            set(&[2, 6]),
            set(&[5, 6]),
        ]
    }

    /// The positions of processor `proc`'s share of `cands`, ascending.
    fn positions(part: &CandidatePartition, cands: &[ItemSet], proc: usize) -> Vec<usize> {
        let owned = |&i: &usize| part.owns(proc, i, cands[i].items());
        (0..cands.len()).filter(owned).collect()
    }

    /// Every processor's share, as the drivers would cut them.
    fn shares(part: &CandidatePartition, cands: &[ItemSet]) -> Vec<Vec<ItemSet>> {
        let share = |proc| positions(part, cands, proc).into_iter();
        let share = |proc| share(proc).map(|i| cands[i].clone()).collect();
        (0..part.num_procs()).map(share).collect()
    }

    fn total_candidates(part: &CandidatePartition, cands: &[ItemSet]) -> usize {
        shares(part, cands).iter().map(Vec::len).sum()
    }

    #[test]
    fn round_robin_covers_all_candidates() {
        let cands = sample_candidates();
        let part = partition_round_robin(cands.len(), 3);
        assert_eq!(total_candidates(&part, &cands), cands.len());
        assert_eq!(part.num_procs(), 3);
        // Round robin: shares have sizes 3, 3, 2.
        let sizes: Vec<usize> = shares(&part, &cands).iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2]);
        assert_eq!(
            shares(&part, &cands)[1],
            [set(&[0, 2]), set(&[1, 2]), set(&[5, 6])]
        );
        assert!((part.imbalance - (3.0 / (8.0 / 3.0) - 1.0)).abs() < 1e-12);
        assert!(part.filters.iter().all(OwnershipFilter::is_all));
    }

    #[test]
    fn first_item_partition_is_exact_and_filtered() {
        let cands = sample_candidates();
        let part = partition_by_first_item(&arena(&cands), 8, &[1.0; 2]);
        assert_eq!(total_candidates(&part, &cands), cands.len());
        // All candidates with the same first item land on one processor,
        // and that processor's filter admits the first item.
        for (proc, cand_list) in shares(&part, &cands).iter().enumerate() {
            for c in cand_list {
                let first = c.first().unwrap();
                assert!(part.filters[proc].allows_root(first));
                // No other processor's filter admits it.
                for (other, f) in part.filters.iter().enumerate() {
                    if other != proc {
                        assert!(!f.allows_root(first), "first item owned twice");
                    }
                }
            }
        }
    }

    #[test]
    fn first_item_partition_balances_weights() {
        // 100 first items with equal candidate counts pack evenly.
        let cands: Vec<ItemSet> = (0..100u32).map(|i| set(&[i, i + 100])).collect();
        let part = partition_by_first_item(&arena(&cands), 200, &[1.0; 4]);
        assert!(part.imbalance < 1e-9);
        for p in shares(&part, &cands) {
            assert_eq!(p.len(), 25);
        }
    }

    #[test]
    fn hot_first_item_breaks_single_level_balance() {
        // One item starts 90% of candidates: single-level packing can't
        // balance (the paper's motivation for two-level).
        let mut cands: Vec<ItemSet> = (1..=90u32).map(|s| set(&[0, s])).collect();
        cands.push(set(&[1, 2]));
        cands.push(set(&[2, 3]));
        let single = partition_by_first_item(&arena(&cands), 100, &[1.0; 4]);
        assert!(single.imbalance > 1.0, "hot item forces imbalance");
        let double = partition_two_level(&arena(&cands), 100, &[1.0; 4], 10);
        assert!(
            double.imbalance < 0.3,
            "two-level split restores balance, got {}",
            double.imbalance
        );
        assert_eq!(total_candidates(&double, &cands), cands.len());
    }

    #[test]
    fn two_level_filters_route_correctly() {
        let mut cands: Vec<ItemSet> = (1..=20u32).map(|s| set(&[0, s])).collect();
        cands.push(set(&[3, 4]));
        let part = partition_two_level(&arena(&cands), 30, &[1.0; 3], 5);
        for (proc, cand_list) in shares(&part, &cands).iter().enumerate() {
            for c in cand_list {
                let first = c.first().unwrap();
                let second = c.second().unwrap();
                assert!(part.filters[proc].allows_root(first));
                assert!(part.filters[proc].allows_second(first, second));
            }
        }
        // Each candidate is admitted by exactly one processor's filter.
        for c in &cands {
            let owners = part
                .filters
                .iter()
                .filter(|f| {
                    f.allows_root(c.first().unwrap())
                        && f.allows_second(c.first().unwrap(), c.second().unwrap())
                })
                .count();
            assert_eq!(owners, 1, "candidate {c} owned by {owners} processors");
        }
    }

    #[test]
    #[should_panic(expected = "size >= 2")]
    fn two_level_rejects_singletons() {
        partition_two_level(&arena(&[set(&[1])]), 10, &[1.0; 2], 1);
    }

    #[test]
    fn partition_single_processor() {
        let cands = sample_candidates();
        let part = partition_by_first_item(&arena(&cands), 8, &[1.0; 1]);
        assert_eq!(shares(&part, &cands), [cands]);
        assert_eq!(part.imbalance, 0.0);
    }

    /// An arena is counted row by row; `F₁ × F₁` from its row lengths,
    /// which are what counting its rows gives.
    #[test]
    fn first_item_histogram_counts() {
        let cands = vec![set(&[0, 5]), set(&[0, 7]), set(&[3, 4])];
        assert_eq!(
            first_item_histogram(&arena(&cands), 8),
            [2, 0, 0, 1, 0, 0, 0, 0]
        );
        let f1 = [1, 2, 4, 7].map(Item);
        let every_pair: Vec<ItemSet> = (0..4)
            .flat_map(|i| (i + 1..4).map(move |j| ItemSet::from_sorted(vec![f1[i], f1[j]])))
            .collect();
        let by_rows = first_item_histogram(&arena(&every_pair), 8);
        assert_eq!(by_rows, [0, 3, 2, 0, 1, 0, 0, 0]);
        assert_eq!(
            first_item_histogram(&Candidates::pairs(f1.into()), 8),
            by_rows
        );
    }

    #[test]
    fn shares_remain_sorted() {
        // apriori_gen emits sorted candidates; per-share order must stay
        // sorted because each processor rebuilds its own tree and relies on
        // deterministic candidate order for reductions.
        let cands = sample_candidates();
        for part in [
            partition_round_robin(cands.len(), 3),
            partition_by_first_item(&arena(&cands), 8, &[1.0; 3]),
            partition_two_level(&arena(&cands), 8, &[1.0; 3], 2),
        ] {
            for p in shares(&part, &cands) {
                assert!(p.windows(2).all(|w| w[0] < w[1]), "share not sorted: {p:?}");
            }
            // The shares are disjoint and cover the list: every list
            // position is owned exactly once.
            let mut owned: Vec<usize> = (0..part.num_procs())
                .flat_map(|proc| positions(&part, &cands, proc))
                .collect();
            owned.sort_unstable();
            assert_eq!(owned, (0..cands.len()).collect::<Vec<_>>());
        }
    }

    /// Strategy: a sorted candidate itemset of exactly `k` distinct items.
    fn arb_candidate(universe: u32, k: usize) -> impl Strategy<Value = Vec<u32>> {
        prop::collection::btree_set(0..universe, k).prop_map(|s| s.into_iter().collect())
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A partition plan's shares cover every candidate exactly once,
        /// whatever the strategy, the capacities and the split threshold:
        /// pairwise disjoint, union `C_k`, each sorted. A share is exactly
        /// what its filter owns (the ownership partitioners; round-robin's
        /// filters own everything and its shares are the strides), and the
        /// plan's imbalance is the one the share lengths give.
        #[test]
        fn partitions_are_exact_covers(
            raw_cands in prop::collection::vec(arb_candidate(20, 3), 1..60),
            procs in 1usize..9,
            skew in prop::collection::vec(1u32..6, 8),
            skewed in 0u8..2,
            split_threshold in 0u64..6,
        ) {
            let cands = to_itemsets(&raw_cands);
            let capacities: Vec<f64> = (0..procs)
                .map(|i| if skewed == 1 { f64::from(skew[i]) / 2.0 } else { 1.0 })
                .collect();
            let plans = [
                (partition_round_robin(cands.len(), procs), false),
                (partition_by_first_item(&arena(&cands), 20, &capacities), true),
                (partition_two_level(&arena(&cands), 20, &capacities, split_threshold), true),
            ];
            for (part, by_ownership) in plans {
                prop_assert_eq!(part.num_procs(), procs);
                let shares = shares(&part, &cands);
                for (proc, share) in shares.iter().enumerate() {
                    prop_assert!(share.windows(2).all(|w| w[0] < w[1]), "unsorted: {:?}", share);
                    if by_ownership {
                        let owned: Vec<ItemSet> =
                            cands.iter().filter(|c| part.filters[proc].owns(c.items())).cloned().collect();
                        prop_assert_eq!(share, &owned);
                    } else {
                        let stride: Vec<ItemSet> =
                            cands.iter().skip(proc).step_by(procs).cloned().collect();
                        prop_assert_eq!(share, &stride);
                        prop_assert!(part.filters[proc].is_all());
                    }
                }
                // Sorted and duplicate-free once merged: disjoint, union C_k.
                let mut all: Vec<ItemSet> = shares.iter().flatten().cloned().collect();
                all.sort();
                prop_assert_eq!(&all, &cands);
                let loads = shares.iter().map(|s| s.len() as u64).collect();
                let by_length = Packing { assignment: Vec::new(), loads }.imbalance();
                prop_assert_eq!(part.imbalance, by_length);
            }
        }

        /// LPT packing never loses weight and respects the 4/3 OPT bound
        /// against the trivial lower bounds max(w_max, total/bins).
        #[test]
        fn lpt_bounds(
            weights in prop::collection::vec(0u64..1000, 1..50),
            bins in 1usize..10,
        ) {
            let p = pack_lpt(&weights, bins);
            let total: u64 = weights.iter().sum();
            prop_assert_eq!(p.loads.iter().sum::<u64>(), total);
            let lower = (*weights.iter().max().unwrap()).max(total.div_ceil(bins as u64));
            let max_load = *p.loads.iter().max().unwrap();
            // LPT ≤ 4/3·OPT + ... ; use the safe bound 4/3·lower + max weight.
            prop_assert!(
                max_load * 3 <= lower * 4 + 3 * *weights.iter().max().unwrap(),
                "max load {} vs lower bound {}",
                max_load,
                lower
            );
        }

        /// Capacity-weighted packing is an exact cover for any positive
        /// capacities, and uniform capacities reproduce plain LPT bit for bit
        /// (the homogeneous-goldens guarantee).
        #[test]
        fn weighted_packing_covers_and_degenerates_to_lpt(
            weights in prop::collection::vec(0u64..1000, 1..50),
            caps in prop::collection::vec(1u32..16, 1..10),
            uniform_cap in 1u32..16,
        ) {
            let caps: Vec<f64> = caps.iter().map(|&c| f64::from(c)).collect();
            let p = pack_lpt_weighted(&weights, &caps);
            prop_assert_eq!(p.loads.iter().sum::<u64>(), weights.iter().sum::<u64>());
            prop_assert_eq!(p.assignment.len(), weights.len());
            let bins = caps.len();
            let u = pack_lpt_weighted(&weights, &vec![f64::from(uniform_cap); bins]);
            let plain = pack_lpt(&weights, bins);
            prop_assert_eq!(u.assignment, plain.assignment);
            prop_assert_eq!(u.loads, plain.loads);
        }
    }
}
