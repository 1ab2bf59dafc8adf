//! `exp <name> [args]`, `exp all`, `exp --list`: regenerates the paper's
//! tables and figures (and this repo's extensions). Each experiment prints
//! the series the paper plots and drops a CSV — some also a
//! `BENCH_*.json` — under `experiments/`. `all` runs the whole table below
//! in order, cheapest first: the full reproduction of the evaluation
//! section (expect several minutes of virtual-time simulation).

use armine_bench::experiments::*;

/// Positional arguments parsed as processor counts, or the experiment's
/// default.
fn procs_or(args: &[String], default: fn() -> Vec<usize>) -> Vec<usize> {
    if args.is_empty() {
        return default();
    }
    args.iter()
        .map(|a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("exp: bad processor count '{a}'");
                std::process::exit(2)
            })
        })
        .collect()
}

/// An experiment: its name and what runs it on the rest of the command line.
type Experiment = (&'static str, fn(&[String]));

const EXPERIMENTS: &[Experiment] = &[
    // Equation 1's V(i,j) model: closed form vs Monte-Carlo vs a real
    // hash tree's measured counters.
    ("model", |_| {
        emit(&model::run(), "model_vij");
        let (measured, predicted) = model::measured_vs_predicted(7);
        println!(
            "\nReal hash tree: measured {measured:.2} distinct leaves/transaction, model predicts {predicted:.2} ({:+.1}%)",
            (measured / predicted - 1.0) * 100.0
        );
    }),
    // Table II: HD's per-pass grid configuration.
    ("table2", |_| emit(&table2::run(), "table2")),
    // The Section III-C load-balance quote: candidate imbalance vs
    // computation-time imbalance in IDD.
    ("imbalance", |_| {
        emit(&imbalance::run(&imbalance::default_procs()), "imbalance")
    }),
    // Section III-E's communication-volume claim: IDD vs HPA (and
    // HPA-ELD) as the pass horizon k grows.
    ("hpa", |_| emit(&hpa_comm::run(), "hpa_comm")),
    // PDM's DHP-style candidate pruning vs CD (related work, §III-E).
    ("pdm", |_| emit(&pdm_prune::run(), "pdm_prune")),
    // The Section V overhead-fraction quotes (Figure 13's discussion):
    // CD's tree-build and reduction shares, IDD's imbalance and
    // data-movement shares, as P grows.
    ("breakdown", |_| {
        emit(&breakdown::run(&breakdown::default_procs()), "breakdown")
    }),
    // Design-choice ablations: hash-tree leaf capacity, ring-pipeline page
    // size, and interconnect topology.
    ("ablation", |_| {
        emit(&ablation::run_tree_shape(), "ablation_tree_shape");
        emit(&ablation::run_page_size(), "ablation_page_size");
        emit(&ablation::run_topology(), "ablation_topology");
    }),
    // Fault-injection overhead: retransmission cost vs drop rate, the
    // price of a pass-boundary crash recovery at P=64, and the same fault
    // plans on both execution backends (BENCH_faults.json).
    ("faults", |_| {
        emit(&faults::run_drop_rate(), "faults_drop_rate");
        emit(&faults::run_crash_recovery(), "faults_crash_recovery");
        emit(&faults::run_both_backends(), "faults_backends");
    }),
    // Heterogeneous-cluster placement: what fast/slow rank mixes cost the
    // static even split and how much adaptive placement recovers, at P=16
    // simulated plus a native validation (BENCH_hetero.json).
    ("hetero", |_| emit(&hetero::run(), "hetero_placement")),
    // Candidate-structure comparison across the CandidateCounter seam:
    // hash tree vs trie vs vertical on CD and IDD passes, plus a native
    // measurement of each structure's counting phase
    // (BENCH_structures.json).
    ("structures", |_| {
        let (sim, native) = structures::run_full();
        emit(&sim, "structures");
        emit(&native, "structures_native");
    }),
    // Native-vs-virtual speedup validation: mines a large Quest dataset on
    // both execution backends (BENCH_native.json). Args: processor counts.
    ("native", |args| {
        let procs = procs_or(args, native::default_procs);
        emit(&native::run(&procs), "native_speedup");
    }),
    // Figure 11: distinct leaf visits per transaction, DD vs IDD. Args:
    // processor counts.
    ("fig11", |args| {
        let procs = procs_or(args, fig11::default_procs);
        emit(&fig11::run(&procs), "fig11_leaf_visits");
    }),
    // Figure 12: SP2 response time vs candidate count.
    ("fig12", |_| {
        let supports = fig12::default_supports();
        emit(&fig12::run(&supports), "fig12_sp2_candidates");
    }),
    // Figure 13: speedup of pass 3 for CD/IDD/HD. Args: processor counts.
    ("fig13", |args| {
        let procs = procs_or(args, fig13::default_procs);
        emit(&fig13::run(&procs), "fig13_speedup");
    }),
    // Figure 14: response time vs transaction count.
    ("fig14", |_| {
        let counts = fig14::default_transactions();
        emit(&fig14::run(&counts), "fig14_transactions");
    }),
    // Figure 15: response time vs candidate count on the T3E.
    ("fig15", |_| {
        emit(&fig15::run(&fig15::default_supports()), "fig15_candidates")
    }),
    // Figure 10: scaleup of CD/IDD/HD/DD/DD+comm. Args: processor counts.
    ("fig10", |args| {
        let procs = procs_or(args, fig10::default_procs);
        emit(&fig10::run(&procs), "fig10_scaleup");
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match args.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("", &[][..]),
    };
    match name {
        "--list" => {
            for (name, _) in EXPERIMENTS {
                println!("{name}");
            }
        }
        "all" => {
            let t = std::time::Instant::now();
            for (_, run) in EXPERIMENTS {
                run(&[]);
            }
            println!(
                "\nall experiments done in {:.0}s",
                t.elapsed().as_secs_f64()
            );
        }
        _ => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => run(rest),
            None => {
                eprintln!("usage: exp <name>|all|--list [args]   (no experiment '{name}')");
                std::process::exit(2);
            }
        },
    }
}
