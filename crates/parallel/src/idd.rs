//! Intelligent Data Distribution (Section III-C, Figure 7).
//!
//! IDD fixes all three DD problems:
//!
//! 1. **Communication** — the naive all-to-all becomes a ring pipeline
//!    (Figure 6): one asynchronous send + receive per step, overlapped
//!    with processing of the in-hand buffer.
//! 2. **Idling** — with point-to-point neighbour traffic and balanced
//!    buffers, no processor waits on a congested peer.
//! 3. **Redundant work** — candidates are partitioned by **first item**
//!    (bin-packed for balance, optionally split by second item for hot
//!    first items), and every processor filters transaction starting
//!    items against its ownership bitmap at the hash-tree root, so each
//!    transaction's work is *divided* among processors rather than
//!    repeated: `V(C/P, L/P) ≈ V(C, L)/P`.
//!
//! IDD has no pass driver of its own: it is the partitioned pass of
//! [`crate::hd`] at grid `(P, 1)` with [`make_partition`]'s plan, moving
//! pages by the ring. Single-source IDD is the same pass moving them by
//! the chain from rank 0 (the paper's conclusion), or by the ring once
//! that source has died and its pages live on several survivors. What
//! lives here is the plan.

use crate::config::ParallelParams;
use armine_core::binpack::{partition_by_first_item, partition_two_level, CandidatePartition};
use armine_core::candidates::Candidates;

/// Builds IDD's candidate partition of `candidates`, the run's `C_k`:
/// bin-packed single-level by default, two-level when a split threshold is
/// configured. `capacities` are the placement seam's relative bin speeds
/// (one per processor) — uniform under static placement, re-scored per
/// pass under adaptive.
pub(crate) fn make_partition(
    candidates: &Candidates,
    num_items: u32,
    capacities: &[f64],
    params: &ParallelParams,
) -> CandidatePartition {
    let rows = candidates.rows(0..candidates.len());
    match params.split_threshold {
        Some(t) => partition_two_level(rows, num_items, capacities, t),
        None => partition_by_first_item(rows, num_items, capacities),
    }
}

#[cfg(test)]
mod tests {
    use crate::{Algorithm, ParallelMiner, ParallelParams};
    use armine_core::apriori::{Apriori, AprioriParams};
    use armine_core::ItemSet;
    use armine_datagen::QuestParams;

    #[test]
    fn single_source_matches_serial_and_partitioned_idd() {
        let dataset = QuestParams::paper_t15_i6()
            .num_transactions(300)
            .num_items(80)
            .num_patterns(30)
            .seed(301)
            .generate();
        let min_count = 9;
        let serial = Apriori::new(AprioriParams::with_min_support_count(min_count).max_k(4))
            .mine(dataset.transactions());
        let want: Vec<(ItemSet, u64)> = serial
            .frequent
            .iter()
            .map(|(s, c)| (s.clone(), c))
            .collect();
        let params = ParallelParams::with_min_support_count(min_count)
            .page_size(40)
            .max_k(4);
        for procs in [1, 3, 6] {
            let run = ParallelMiner::new(procs).mine(Algorithm::IddSingleSource, &dataset, &params);
            let got: Vec<(ItemSet, u64)> =
                run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
            assert_eq!(got, want, "procs={procs}");
        }
    }

    #[test]
    fn single_source_moves_data_down_the_whole_chain() {
        let dataset = QuestParams::paper_t15_i6()
            .num_transactions(400)
            .num_items(80)
            .num_patterns(30)
            .seed(303)
            .generate();
        let params = ParallelParams::with_min_support_count(10)
            .page_size(50)
            .max_k(3);
        let p = 6;
        let run = ParallelMiner::new(p).mine(Algorithm::IddSingleSource, &dataset, &params);
        // Interior ranks forward every page down the chain; the tail
        // forwards none (its sends are only the frequent-set exchange, which
        // all ranks share). So the tail must send markedly less than any
        // interior rank.
        let sent: Vec<u64> = run.ranks.iter().map(|r| r.bytes_sent).collect();
        for interior in 0..p - 1 {
            assert!(
                (sent[p - 1] as f64) < 0.8 * sent[interior] as f64,
                "tail must forward no pipeline data: {sent:?}"
            );
        }
    }
}
