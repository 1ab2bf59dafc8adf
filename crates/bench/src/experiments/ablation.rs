//! Ablations of the design knobs the paper (and our DESIGN.md) call out:
//!
//! 1. **Hash-tree shape** — Section IV notes "the desired value of `S`
//!    can be obtained by adjusting the branching factor": wider fan-out
//!    (and smaller leaves) means more, emptier leaves — more traversal,
//!    fewer per-leaf comparisons; narrow fan-out saturates at depth `k`
//!    and the leaves balloon.
//! 2. **Page size** — the ring pipeline's granularity: pages too small pay
//!    per-message startup, pages too large lose compute/communication
//!    overlap (and the paper's finite-buffer idling appears).
//! 3. **Interconnect** — DD's naive all-to-all vs the topology it runs on;
//!    IDD's ring is neighbour-only and barely notices.

use crate::report::{ms, ratio, Table};
use crate::workloads;
use armine_core::apriori::{Apriori, AprioriParams};
use armine_core::hashtree::HashTreeParams;
use armine_mpsim::{MachineProfile, Topology};
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams};

/// Ablation 1: hash-tree shape on the serial miner.
pub(crate) fn run_tree_shape() -> Table {
    let dataset = workloads::t15_i6(2000, 4040);
    let mut table = Table::new(
        "Ablation — hash-tree shape: branching and leaf capacity (serial, pass ≤ 3)",
        &[
            "tree shape",
            "avg S",
            "leaf visits/tx",
            "traversals/tx",
            "cand checks/tx",
        ],
    );
    let shape = |branching, max_leaf| HashTreeParams {
        branching,
        max_leaf,
    };
    let fixed =
        [(4, 16), (8, 16), (16, 16), (64, 16), (64, 4)].map(|(b, leaf)| ("", shape(b, leaf)));
    // The last row is the default: fan-out sized per pass from |C_k|.
    let sized = ("sized: ", HashTreeParams::default());
    for (prefix, tree) in fixed.into_iter().chain([sized]) {
        let params = AprioriParams::with_min_support(0.01).tree(tree).max_k(3);
        let run = Apriori::new(params).mine(dataset.transactions());
        let last = run.passes.last();
        let stats = last.map(|p| p.tree_stats).unwrap_or_default();
        let fan_out = last.map_or(0, |p| tree.fan_out(p.k, p.candidates));
        let tx = stats.transactions.max(1) as f64;
        table.row(&[
            &format!("{prefix}b={fan_out} leaf={}", tree.max_leaf),
            &format!(
                "{:.1}",
                stats.candidate_checks as f64 / stats.distinct_leaf_visits.max(1) as f64
            ),
            &format!("{:.1}", stats.distinct_leaf_visits as f64 / tx),
            &format!("{:.1}", stats.traversal_steps as f64 / tx),
            &format!("{:.1}", stats.candidate_checks as f64 / tx),
        ]);
    }
    table
}

/// Ablation 2: ring-pipeline page size for IDD.
pub(crate) fn run_page_size() -> Table {
    let dataset = workloads::scaleup(8, 400, 4141);
    let miner = ParallelMiner::new(8);
    let mut table = Table::new(
        "Ablation — IDD ring-pipeline page size (P=8)",
        &["page size", "response ms", "messages", "MB moved"],
    );
    for page in [10usize, 50, 200, 1000, 4000] {
        let params = ParallelParams::with_min_support(0.01)
            .page_size(page)
            .max_k(3);
        let run = miner.mine(Algorithm::Idd, &dataset, &params);
        table.row(&[
            &page,
            &ms(run.response_time),
            &run.ranks.iter().map(|r| r.messages_sent).sum::<u64>(),
            &format!("{:.1}", run.total_bytes() as f64 / 1e6),
        ]);
    }
    table
}

/// Ablation 3: interconnect topology under DD vs IDD.
pub(crate) fn run_topology() -> Table {
    let dataset = workloads::scaleup(16, 250, 4242);
    let params = ParallelParams::with_min_support(0.012)
        .page_size(100)
        .max_k(3);
    // On the real T3E, computation dominates and topology is second-order
    // (cut-through routing; see store_forward = 0.05). This ablation asks
    // the counterfactual the paper's Section III-B argues from — a slow,
    // store-and-forward network — where DD's distance-spanning all-to-all
    // pays per hop and IDD's neighbour-only ring does not.
    let t3e = MachineProfile::cray_t3e();
    let machine = MachineProfile {
        store_forward: 1.0,
        t_w: t3e.t_w * 40.0, // ~7.5 MB/s links
        t_s: t3e.t_s * 4.0,
        ..t3e
    };
    let mut table = Table::new(
        "Ablation — topology on a slow store-and-forward network (P=16)",
        &["topology", "DD ms", "IDD ms", "DD/IDD"],
    );
    for (name, topo) in [
        ("fully-connected", Topology::FullyConnected),
        ("3-D torus", Topology::torus_for(16)),
        ("2-D mesh 4x4", Topology::Mesh2D { rows: 4, cols: 4 }),
        ("ring", Topology::Ring),
        ("hypercube", Topology::Hypercube),
    ] {
        let miner = ParallelMiner::new(16)
            .topology(topo)
            .machine(machine.clone());
        let dd = miner.mine(Algorithm::Dd, &dataset, &params);
        let idd = miner.mine(Algorithm::Idd, &dataset, &params);
        table.row(&[
            &name,
            &ms(dd.response_time),
            &ms(idd.response_time),
            &ratio(dd.response_time / idd.response_time),
        ]);
    }
    table
}
