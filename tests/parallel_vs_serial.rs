//! The repository's headline invariant, tested across crates: every
//! parallel formulation, on any processor count, any machine profile and
//! any topology, discovers **exactly** the frequent-itemset lattice of
//! serial Apriori — and therefore exactly the same association rules.

mod common;

use armine::core::apriori::{Apriori, AprioriParams};
use armine::core::rules::generate_rules;
use armine::core::{Dataset, ItemSet};
use armine::mpsim::{MachineProfile, Topology};
use armine::parallel::{Algorithm, ParallelMiner, ParallelParams};
use common::{lattice, quest};

const ALGOS: [Algorithm; 7] = [
    Algorithm::Cd,
    Algorithm::Dd,
    Algorithm::DdComm,
    Algorithm::Idd,
    Algorithm::Hd {
        group_threshold: 60,
    },
    Algorithm::Hpa { eld_permille: 0 },
    Algorithm::Hpa { eld_permille: 250 },
];

fn serial_lattice(dataset: &Dataset, min_count: u64, max_k: usize) -> Vec<(ItemSet, u64)> {
    let run = Apriori::new(AprioriParams::with_min_support_count(min_count).max_k(max_k))
        .mine(dataset.transactions());
    lattice(&run.frequent)
}

#[test]
fn every_algorithm_every_proc_count_matches_serial() {
    let dataset = quest(400, 90, 40, 101);
    let min_count = 10;
    let want = serial_lattice(&dataset, min_count, 4);
    assert!(
        want.len() > 20,
        "workload must be non-trivial: {}",
        want.len()
    );
    let params = ParallelParams::with_min_support_count(min_count)
        .page_size(60)
        .max_k(4);
    for procs in [2, 3, 5, 8] {
        for algo in ALGOS {
            let run = ParallelMiner::new(procs).mine(algo, &dataset, &params);
            assert_eq!(lattice(&run.frequent), want, "{} at P={procs}", algo.name());
        }
    }
}

#[test]
fn machine_profile_changes_time_not_answers() {
    let dataset = quest(300, 70, 40, 103);
    let params = ParallelParams::with_min_support_count(9).max_k(4);
    let t3e = ParallelMiner::new(4).machine(MachineProfile::cray_t3e());
    let sp2 = ParallelMiner::new(4).machine(MachineProfile::ibm_sp2());
    let a = t3e.mine(
        Algorithm::Hd {
            group_threshold: 50,
        },
        &dataset,
        &params,
    );
    let b = sp2.mine(
        Algorithm::Hd {
            group_threshold: 50,
        },
        &dataset,
        &params,
    );
    assert_eq!(lattice(&a.frequent), lattice(&b.frequent));
    assert!(
        b.response_time > 3.0 * a.response_time,
        "the SP2 must be much slower: {} vs {}",
        b.response_time,
        a.response_time
    );
}

#[test]
fn topology_changes_time_not_answers() {
    let dataset = quest(300, 70, 40, 107);
    let params = ParallelParams::with_min_support_count(9).max_k(3);
    let lattices: Vec<Vec<(ItemSet, u64)>> = [
        Topology::Ring,
        Topology::FullyConnected,
        Topology::Hypercube,
        Topology::Mesh2D { rows: 2, cols: 4 },
    ]
    .into_iter()
    .map(|topo| {
        let run = ParallelMiner::new(8)
            .topology(topo)
            .mine(Algorithm::Idd, &dataset, &params);
        lattice(&run.frequent)
    })
    .collect();
    assert!(lattices.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn rules_from_parallel_lattice_match_serial_rules() {
    let dataset = quest(350, 80, 40, 109);
    let min_count = 10;
    let serial = Apriori::new(AprioriParams::with_min_support_count(min_count).max_k(4))
        .mine(dataset.transactions());
    let parallel = ParallelMiner::new(4).mine(
        Algorithm::Idd,
        &dataset,
        &ParallelParams::with_min_support_count(min_count)
            .page_size(60)
            .max_k(4),
    );
    let serial_rules = generate_rules(&serial.frequent, 0.7);
    let parallel_rules = generate_rules(&parallel.frequent, 0.7);
    assert!(!serial_rules.is_empty());
    assert_eq!(serial_rules.len(), parallel_rules.len());
    for (a, b) in serial_rules.iter().zip(&parallel_rules) {
        assert_eq!(a.antecedent, b.antecedent);
        assert_eq!(a.consequent, b.consequent);
        assert_eq!(a.support_count, b.support_count);
        assert!((a.confidence - b.confidence).abs() < 1e-12);
    }
}

#[test]
fn pass_candidate_counts_agree_across_algorithms() {
    // All algorithms generate the same C_k sequence (apriori_gen over the
    // same F_{k-1}); only the counting differs.
    let dataset = quest(300, 70, 40, 113);
    let params = ParallelParams::with_min_support_count(9).max_k(4);
    let runs: Vec<_> = ALGOS
        .iter()
        .map(|&a| ParallelMiner::new(4).mine(a, &dataset, &params))
        .collect();
    for pair in runs.windows(2) {
        let a: Vec<(usize, usize)> = pair[0].passes.iter().map(|p| (p.k, p.candidates)).collect();
        let b: Vec<(usize, usize)> = pair[1].passes.iter().map(|p| (p.k, p.candidates)).collect();
        assert_eq!(a, b);
    }
}

#[test]
fn uneven_partition_sizes_still_exact() {
    // 7 processors over a transaction count that doesn't divide evenly.
    let dataset = quest(311, 60, 40, 127);
    let min_count = 9;
    let want = serial_lattice(&dataset, min_count, 4);
    let params = ParallelParams::with_min_support_count(min_count)
        .page_size(13) // odd page size → ragged pages too
        .max_k(4);
    for algo in ALGOS {
        let run = ParallelMiner::new(7).mine(algo, &dataset, &params);
        assert_eq!(lattice(&run.frequent), want, "{}", algo.name());
    }
}

#[test]
fn more_processors_than_transactions() {
    let dataset = quest(10, 30, 40, 131);
    let params = ParallelParams::with_min_support_count(2).max_k(3);
    let want = serial_lattice(&dataset, 2, 3);
    for algo in ALGOS {
        let run = ParallelMiner::new(16).mine(algo, &dataset, &params);
        assert_eq!(lattice(&run.frequent), want, "{}", algo.name());
    }
}
