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

use crate::common::{build_counter_charged, count_batch_charged, PassResult, RankCtx};
use crate::config::ParallelParams;
use armine_core::candidates::Candidates;
use armine_core::hashtree::OwnershipFilter;
use armine_core::ItemSet;
use armine_mpsim::{Comm, RecvFault};

/// One NPA counting pass over `candidates`, the run's `C_k`.
pub(crate) fn count_pass(
    comm: &mut Comm,
    ctx: &RankCtx,
    candidates: &Candidates,
    params: &ParallelParams,
) -> Result<PassResult, RecvFault> {
    let p = ctx.size();
    let total = candidates.len();
    let all = OwnershipFilter::all();
    let mut counter = build_counter_charged(comm, params, candidates, 0..total, all, total);
    comm.charge_io(ctx.local_bytes());
    let stats = count_batch_charged(comm, &mut *counter, &ctx.local, &OwnershipFilter::all());

    // Funnel the counts to the coordinator — member index 0, so the role
    // survives the death (and adoption) of any global rank.
    let counts = counter.count_vector();
    let bytes = counts.len() * 8;
    let mut world = ctx.world(comm);
    let gathered = world.try_gather(0, counts, bytes)?;
    let level: Vec<(ItemSet, u64)> = if let Some(all) = gathered {
        // Coordinator: sum and filter.
        let mut sum = vec![0u64; total];
        for v in &all {
            for (dst, src) in sum.iter_mut().zip(v) {
                *dst += src;
            }
        }
        // Coordinator-side summation: (P−1)·M integer adds.
        let m = world.comm().machine().clone();
        let t_add = m.t_travers / 8.0; // one add is far cheaper than a tree descent
        world
            .comm()
            .advance(total as f64 * (p as f64 - 1.0) * t_add);
        counter.set_count_vector(&sum);
        let level = counter.frequent(ctx.min_count);
        let level_bytes = crate::common::level_wire_size(&level);
        world.try_broadcast(0, Some(level.clone()), level_bytes)?;
        level
    } else {
        world.try_broadcast::<Vec<(ItemSet, u64)>>(0, None, 0)?
    };
    Ok(PassResult {
        level,
        stats,
        db_scans: 1,
        grid: (1, p),
        candidate_imbalance: 0.0,
        counted_candidates: None,
    })
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
