//! Canonical workloads of the evaluation, scaled 1:100 from the paper.
//!
//! The paper's datasets are Quest `T15.I6` (average transaction length 15,
//! average pattern length 6). Response-time *shapes* are governed by the
//! ratios N/P (transactions per processor), M/P or M/G (candidates per
//! tree), and C/L (potential candidates vs leaves) — all preserved under
//! uniform scaling; EXPERIMENTS.md records the mapping per figure.

use armine_core::Dataset;
use armine_datagen::QuestParams;

/// Item universe for the scaled experiments. The paper's datasets use
/// 1000 items; a few hundred keeps |C_2| in a realistic band at our N.
const NUM_ITEMS: u32 = 250;

/// A `T15.I6` database with `n` transactions over [`NUM_ITEMS`] items.
pub(crate) fn t15_i6(n: usize, seed: u64) -> Dataset {
    QuestParams::paper_t15_i6()
        .num_transactions(n)
        .num_items(NUM_ITEMS)
        .num_patterns(120)
        .seed(seed)
        .generate()
}

/// A `T15.I6` database with an explicit item universe (experiments that
/// sweep the candidate count need wider universes).
pub(crate) fn t15_i6_items(n: usize, num_items: u32, seed: u64) -> Dataset {
    QuestParams::paper_t15_i6()
        .num_transactions(n)
        .num_items(num_items)
        .num_patterns((num_items as usize / 2).max(20))
        .seed(seed)
        .generate()
}

/// A `T10.I4` database with `n` transactions over [`NUM_ITEMS`] items —
/// the lighter Quest workload used by the counting-structure comparison
/// (shorter transactions keep the trie's merge-intersect walk and the
/// hash tree's subset descent in the same op-count regime).
pub(crate) fn t10_i4(n: usize, seed: u64) -> Dataset {
    QuestParams::paper_t15_i6()
        .avg_transaction_len(10.0)
        .avg_pattern_len(4.0)
        .num_transactions(n)
        .num_items(NUM_ITEMS)
        .num_patterns(120)
        .seed(seed)
        .generate()
}

/// Scaleup database: `per_proc` transactions for each of `procs`
/// processors (the Figure 10/11 setup keeps work per processor constant
/// as P grows).
pub(crate) fn scaleup(procs: usize, per_proc: usize, seed: u64) -> Dataset {
    t15_i6(procs * per_proc, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t15_shape() {
        let d = t15_i6(400, 1);
        assert_eq!(d.len(), 400);
        let avg = d.avg_transaction_len();
        assert!(avg > 10.0 && avg < 18.0, "got {avg}");
    }

    #[test]
    fn t10_shape() {
        let d = t10_i4(400, 1);
        assert_eq!(d.len(), 400);
        let avg = d.avg_transaction_len();
        assert!(avg > 6.0 && avg < 13.0, "got {avg}");
    }

    #[test]
    fn scaleup_grows_with_procs() {
        assert_eq!(scaleup(8, 100, 2).len(), 800);
    }
}
