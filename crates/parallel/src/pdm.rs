//! PDM — Parallel Data Mining (Park, Chen & Yu, CIKM '95): the parallel
//! formulation of DHP that Section III-E describes as "similar in nature
//! to the CD algorithm".
//!
//! Structure of a pass:
//!
//! * Before counting pass 2 (and optionally later passes), every processor
//!   hashes the k-subsets of its **local** transactions into a bucket
//!   table; one global reduction sums the tables, and every processor
//!   prunes the freshly generated `C_k` by the global bucket counts —
//!   identical pruning everywhere, so candidate order stays aligned.
//! * Counting then is CD's pass over the (pruned) candidates — the one
//!   pass of [`crate::hd`] with CD's plan, local count, all-reduce and
//!   memory cap — so what lives here is the [`prune`] step alone.
//!
//! Compared to CD, PDM pays an extra `O(B)` reduction (B = bucket count)
//! and the subset-hashing compute, and saves the tree build + counting
//! for every pruned candidate. The `exp pdm` experiment measures the
//! trade.

use crate::common::RankCtx;
use armine_core::candidates::Candidates;
use armine_core::stable_hash::owner_of;
use armine_mpsim::{Comm, RecvFault};

/// PDM's hash filter for a pass over `candidates`, the run's `C_k`: the
/// surviving candidates, or `None` when the pass is not filtered.
/// `filter_passes` bounds which passes build and apply a hash filter (the
/// original uses it for pass 2, where `|C_2|` dominates).
pub(crate) fn prune(
    comm: &mut Comm,
    ctx: &RankCtx,
    candidates: &Candidates,
    buckets: usize,
    filter_passes: usize,
) -> Result<Option<Candidates>, RecvFault> {
    let k = candidates.k();
    if k - 1 > filter_passes {
        return Ok(None);
    }
    assert!(buckets >= 1, "need at least one bucket");
    // Build the local bucket table for this pass's subset size over the
    // local slice.
    let t_travers = comm.machine().t_travers;
    let mut table = vec![0u64; buckets];
    let mut hashed = 0u64;
    for t in ctx.local.iter() {
        t.for_each_k_subset(k, |subset| {
            table[owner_of(subset, buckets)] += 1;
            hashed += 1;
        });
    }
    comm.advance(hashed as f64 * t_travers);
    // Global reduction of the bucket table (the PDM-specific traffic).
    ctx.world(comm).try_allreduce_sum_u64(&mut table)?;
    // Prune: identical on every rank (global counts, same candidates),
    // only the surviving rows copied into this rank's arena. A bucket sums
    // every subset hashed there, so it never refuses a frequent `c`.
    let mut survivors = Vec::new();
    for row in candidates.rows(0..candidates.len()) {
        if table[owner_of(row.as_ref(), buckets)] >= ctx.min_count {
            survivors.extend_from_slice(row.as_ref());
        }
    }
    Ok(Some(Candidates::from_arena(k, survivors)))
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
    fn pdm_matches_serial_apriori() {
        let dataset = quest(300, 80, 61);
        let min_count = 9;
        let serial = Apriori::new(AprioriParams::with_min_support_count(min_count).max_k(4))
            .mine(dataset.transactions());
        let want: Vec<(ItemSet, u64)> = serial
            .frequent
            .iter()
            .map(|(s, c)| (s.clone(), c))
            .collect();
        let params = ParallelParams::with_min_support_count(min_count).max_k(4);
        for procs in [1, 4, 7] {
            let miner = ParallelMiner::new(procs);
            let cd = miner.mine(Algorithm::Cd, &dataset, &params);
            // One bucket holds every hashed pair (the tiniest table, all
            // collisions), 8 filter passes reach past `max_k`.
            for buckets in [1usize, 16, 4096] {
                for filter_passes in [2, 8] {
                    let run = miner.mine(
                        Algorithm::Pdm {
                            buckets,
                            filter_passes,
                        },
                        &dataset,
                        &params,
                    );
                    let got: Vec<(ItemSet, u64)> =
                        run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
                    let case = format!("procs={procs} buckets={buckets} filter={filter_passes}");
                    assert_eq!(got, want, "{case}");
                    if buckets == 1 {
                        assert_eq!(
                            run.passes[1].counted_candidates, cd.passes[1].counted_candidates,
                            "one bucket prunes nothing: {case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one bucket")]
    fn zero_buckets_rejected() {
        let dataset = quest(50, 30, 73);
        let params = ParallelParams::with_min_support_count(3).max_k(2);
        ParallelMiner::new(2).mine(
            Algorithm::Pdm {
                buckets: 0,
                filter_passes: 1,
            },
            &dataset,
            &params,
        );
    }

    #[test]
    fn pdm_prunes_pass2_candidates() {
        let dataset = quest(500, 150, 67);
        let min_count = 12;
        let params = ParallelParams::with_min_support_count(min_count).max_k(3);
        let miner = ParallelMiner::new(4);
        let cd = miner.mine(Algorithm::Cd, &dataset, &params);
        let pdm = miner.mine(
            Algorithm::Pdm {
                buckets: 1 << 15,
                filter_passes: 1,
            },
            &dataset,
            &params,
        );
        let cd2 = &cd.passes[1];
        let pdm2 = &pdm.passes[1];
        assert_eq!(cd2.candidates, pdm2.candidates, "same apriori_gen output");
        assert!(
            pdm2.counted_candidates < cd2.counted_candidates,
            "PDM must count fewer pass-2 candidates: {} vs {}",
            pdm2.counted_candidates,
            cd2.counted_candidates
        );
        // Same final answer.
        assert_eq!(cd.frequent.len(), pdm.frequent.len());
    }

    #[test]
    fn pdm_with_no_filter_passes_is_cd() {
        let dataset = quest(200, 60, 71);
        let params = ParallelParams::with_min_support_count(8).max_k(3);
        let miner = ParallelMiner::new(4);
        let cd = miner.mine(Algorithm::Cd, &dataset, &params);
        let pdm = miner.mine(
            Algorithm::Pdm {
                buckets: 64,
                filter_passes: 0,
            },
            &dataset,
            &params,
        );
        for (a, b) in cd.passes.iter().zip(&pdm.passes) {
            assert_eq!(a.counted_candidates, b.counted_candidates);
        }
        assert_eq!(cd.frequent.len(), pdm.frequent.len());
    }

    /// A filter bound past every pass filters every pass, up to the
    /// largest bound `--filter-passes` accepts: no overflow wraps it to
    /// "filter none".
    #[test]
    fn pdm_filters_every_pass_at_the_largest_filter_bound() {
        let dataset = quest(200, 60, 71);
        let params = ParallelParams::with_min_support_count(8).max_k(4);
        let miner = ParallelMiner::new(4);
        let pdm = |filter_passes| {
            let algorithm = Algorithm::Pdm {
                buckets: 64,
                filter_passes,
            };
            miner.mine(algorithm, &dataset, &params)
        };
        let (widest, deep) = (pdm(usize::MAX), pdm(64));
        assert!(deep.passes.len() >= 3, "{} passes", deep.passes.len());
        assert_eq!(format!("{:?}", widest.passes), format!("{:?}", deep.passes));
        assert_eq!(widest.response_time.to_bits(), deep.response_time.to_bits());
    }
}
