//! NPA — Non-Partitioned Apriori (Shintani & Kitsuregawa, PDIS '96),
//! which Section III-E notes "is very similar to CD": the candidates are
//! replicated and only counts move. The one structural difference is the
//! count exchange: where CD uses a symmetric all-reduce, NPA funnels
//! every processor's count vector to a **coordinator**, which sums them,
//! derives `F_k`, and broadcasts it back.
//!
//! That coordinator is the lesson: the root receives `(P−1)·M` counts
//! through one port, so NPA's reduction step scales as `O(P·M)` against
//! CD's `O(M)` — measurably worse at scale (tested below), which is
//! precisely why CD's authors used a proper reduction.
//!
//! NPA runs CD's pass — the one pass of [`crate::hd`] with CD's plan and
//! local count, but no memory cap — with its own reduction, the
//! [`gather_sum`] that lives here.

use crate::common::level_wire_size;
use armine_core::counter::CandidateCounter;
use armine_core::ItemSet;
use armine_mpsim::{RecvFault, Scope};

/// NPA's reduction: every member of `scope` sends its counts to member 0
/// — the coordinator, a member index, so the role survives the death (and
/// adoption) of any global rank — which sums them into its own, keeps the
/// candidates counted at least `min_count` times and broadcasts them.
pub(crate) fn gather_sum(
    scope: &mut Scope<'_>,
    counter: &mut dyn CandidateCounter,
    min_count: u64,
) -> Result<Vec<(ItemSet, u64)>, RecvFault> {
    let p = scope.size();
    let counts = counter.count_vector();
    let bytes = counts.len() * 8;
    let Some(gathered) = scope.try_gather(0, counts, bytes)? else {
        return scope.try_broadcast(0, None, 0);
    };
    // The coordinator's own counts are in place; add the others'.
    let sum = counter.counts_mut();
    for counts in &gathered[1..] {
        for (dst, src) in sum.iter_mut().zip(counts) {
            *dst += src;
        }
    }
    // Coordinator-side summation: (P−1)·M integer adds, one add far
    // cheaper than a tree descent.
    let t_add = scope.comm().machine().t_travers / 8.0;
    let m = sum.len();
    scope.comm().advance(m as f64 * (p as f64 - 1.0) * t_add);
    let level = counter.frequent(min_count);
    scope.try_broadcast(0, Some(level.clone()), level_wire_size(&level))?;
    Ok(level)
}

#[cfg(test)]
mod tests {
    use crate::{Algorithm, ParallelMiner, ParallelParams};
    use armine_core::apriori::{Apriori, AprioriParams};
    use armine_core::ItemSet;
    use armine_datagen::QuestParams;

    fn quest(n: usize, items: u32, seed: u64) -> armine_core::Dataset {
        QuestParams::paper_t15_i6()
            .num_transactions(n)
            .num_items(items)
            .num_patterns(30)
            .seed(seed)
            .generate()
    }

    #[test]
    fn npa_matches_serial() {
        let dataset = quest(300, 80, 97);
        let min_count = 9;
        let serial = Apriori::new(AprioriParams::with_min_support_count(min_count).max_k(4))
            .mine(dataset.transactions());
        let want: Vec<(ItemSet, u64)> = serial
            .frequent
            .iter()
            .map(|(s, c)| (s.clone(), c))
            .collect();
        let params = ParallelParams::with_min_support_count(min_count).max_k(4);
        for procs in [1, 4, 6] {
            let run = ParallelMiner::new(procs).mine(Algorithm::Npa, &dataset, &params);
            let got: Vec<(ItemSet, u64)> =
                run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
            assert_eq!(got, want, "procs={procs}");
        }
    }

    #[test]
    fn coordinator_funnel_costs_more_than_allreduce_at_scale() {
        // Candidate-heavy pass, many processors: NPA's O(P·M) coordinator
        // receive must exceed CD's O(M) reduction.
        let dataset = quest(640, 200, 101);
        let params = ParallelParams::with_min_support_count(7).max_k(3);
        let miner = ParallelMiner::new(32);
        let cd = miner.mine(Algorithm::Cd, &dataset, &params);
        let npa = miner.mine(Algorithm::Npa, &dataset, &params);
        assert!(
            npa.response_time > cd.response_time,
            "NPA {} should be slower than CD {}",
            npa.response_time,
            cd.response_time
        );
        assert_eq!(cd.frequent.len(), npa.frequent.len());
    }
}
