//! Cross-crate checks for PDM, the parallel DHP: on realistic Quest
//! workloads, its bucket filter leaves the lattice identical to plain
//! Apriori/CD while counting strictly fewer candidates.

mod common;

use armine::core::apriori::{Apriori, AprioriParams};
use armine::parallel::{Algorithm, ParallelMiner, ParallelParams};
use common::{lattice, quest};

#[test]
fn pdm_equals_cd_equals_serial_under_simulation() {
    let dataset = quest(600, 150, 60, 203);
    let params = ParallelParams::with_min_support(0.015)
        .max_k(4)
        .page_size(80);
    let serial =
        Apriori::new(AprioriParams::with_min_support(0.015).max_k(4)).mine(dataset.transactions());
    for procs in [2, 5, 8] {
        let miner = ParallelMiner::new(procs);
        let cd = miner.mine(Algorithm::Cd, &dataset, &params);
        let pdm = miner.mine(
            Algorithm::Pdm {
                buckets: 1 << 14,
                filter_passes: 2,
            },
            &dataset,
            &params,
        );
        assert_eq!(
            lattice(&serial.frequent),
            lattice(&cd.frequent),
            "CD P={procs}"
        );
        assert_eq!(
            lattice(&serial.frequent),
            lattice(&pdm.frequent),
            "PDM P={procs}"
        );
        // PDM counts fewer pass-2 candidates, with a decent filter.
        assert!(pdm.passes[1].counted_candidates < cd.passes[1].counted_candidates);
    }
}

#[test]
fn pdm_prunes_more_with_more_buckets() {
    let dataset = quest(500, 150, 60, 207);
    let params = ParallelParams::with_min_support(0.015).max_k(2);
    let miner = ParallelMiner::new(4);
    let counted = |buckets: usize| {
        miner
            .mine(
                Algorithm::Pdm {
                    buckets,
                    filter_passes: 1,
                },
                &dataset,
                &params,
            )
            .passes[1]
            .counted_candidates
    };
    let coarse = counted(64);
    let fine = counted(1 << 16);
    assert!(
        fine <= coarse,
        "finer buckets cannot prune less: {fine} vs {coarse}"
    );
}
