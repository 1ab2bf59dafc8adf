//! `exp <name> [args]`, `exp all`, `exp --list`: regenerates the paper's
//! tables and figures (and this repo's extensions). Each experiment prints
//! the series the paper plots and drops a CSV — some also a
//! `BENCH_*.json` — under `experiments/`. Every figure is a virtual time
//! or an exact counter, so two runs print the same bytes. `all` runs the
//! whole table below in order, cheapest first: the full reproduction of
//! the evaluation section (about a minute and a half on a 2-vCPU host).
//!
//! Experiments run at 1:100 of the paper's scale (the virtual-time
//! simulator preserves the N/P, M/P and C/L ratios that determine curve
//! shapes; see DESIGN.md §1). Paper-vs-measured comparisons are recorded
//! in EXPERIMENTS.md.

mod experiments;
mod report;
mod workloads;

use experiments::*;

/// What an experiment accepts on the rest of the command line.
enum Args {
    /// Nothing: any argument is a usage error.
    None(fn()),
    /// Processor counts, else the experiment's default sweep.
    Procs(fn() -> Vec<usize>, fn(&[usize])),
}

const EXPERIMENTS: &[(&str, Args)] = &[
    // Equation 1's V(i,j) model: closed form vs Monte-Carlo vs a real
    // hash tree's measured counters.
    (
        "model",
        Args::None(|| {
            emit(&model::run(), "model_vij");
            let (measured, predicted) = model::measured_vs_predicted(7);
            println!(
                "\nReal hash tree: measured {measured:.2} distinct leaves/transaction, model predicts {predicted:.2} ({:+.1}%)",
                (measured / predicted - 1.0) * 100.0
            );
        }),
    ),
    // Table II: HD's per-pass grid configuration.
    ("table2", Args::None(|| emit(&table2::run(), "table2"))),
    // The Section III-C load-balance quote: candidate imbalance vs
    // computation-time imbalance in IDD.
    (
        "imbalance",
        Args::None(|| emit(&imbalance::run(&imbalance::default_procs()), "imbalance")),
    ),
    // Section III-E's communication-volume claim: IDD vs HPA (and
    // HPA-ELD) as the pass horizon k grows.
    ("hpa", Args::None(|| emit(&hpa_comm::run(), "hpa_comm"))),
    // PDM's DHP-style candidate pruning vs CD (related work, §III-E).
    ("pdm", Args::None(|| emit(&pdm_prune::run(), "pdm_prune"))),
    // The Section V overhead-fraction quotes (Figure 13's discussion):
    // CD's tree-build and reduction shares, IDD's imbalance and
    // data-movement shares, as P grows.
    (
        "breakdown",
        Args::None(|| emit(&breakdown::run(&breakdown::default_procs()), "breakdown")),
    ),
    // Design-choice ablations: hash-tree leaf capacity, ring-pipeline page
    // size, and interconnect topology.
    (
        "ablation",
        Args::None(|| {
            emit(&ablation::run_tree_shape(), "ablation_tree_shape");
            emit(&ablation::run_page_size(), "ablation_page_size");
            emit(&ablation::run_topology(), "ablation_topology");
        }),
    ),
    // Fault-injection overhead: retransmission cost vs drop rate, the
    // price of a pass-boundary crash recovery at P=64, and a ladder of
    // fault scenarios at P=4 (BENCH_faults.json).
    (
        "faults",
        Args::None(|| {
            emit(&faults::run_drop_rate(), "faults_drop_rate");
            emit(&faults::run_crash_recovery(), "faults_crash_recovery");
            emit(&faults::run_scenarios(), "faults_scenarios");
        }),
    ),
    // Heterogeneous-cluster placement: what fast/slow rank mixes cost the
    // static even split and how much adaptive placement recovers, at P=16
    // (BENCH_hetero.json).
    (
        "hetero",
        Args::None(|| emit(&hetero::run(), "hetero_placement")),
    ),
    // Candidate-structure comparison across the CandidateCounter seam:
    // hash tree vs trie vs vertical on CD and IDD passes
    // (BENCH_structures.json).
    (
        "structures",
        Args::None(|| emit(&structures::run(), "structures")),
    ),
    // Figure 11: distinct leaf visits per transaction, DD vs IDD.
    (
        "fig11",
        Args::Procs(fig11::default_procs, |procs| {
            emit(&fig11::run(procs), "fig11_leaf_visits")
        }),
    ),
    // Figure 12: SP2 response time vs candidate count.
    (
        "fig12",
        Args::None(|| {
            emit(
                &fig12::run(&fig12::default_supports()),
                "fig12_sp2_candidates",
            )
        }),
    ),
    // Figure 13: speedup of pass 3 for CD/IDD/HD.
    (
        "fig13",
        Args::Procs(fig13::default_procs, |procs| {
            emit(&fig13::run(procs), "fig13_speedup")
        }),
    ),
    // Figure 14: response time vs transaction count.
    (
        "fig14",
        Args::None(|| {
            emit(
                &fig14::run(&fig14::default_transactions()),
                "fig14_transactions",
            )
        }),
    ),
    // Figure 15: response time vs candidate count on the T3E.
    (
        "fig15",
        Args::None(|| emit(&fig15::run(&fig15::default_supports()), "fig15_candidates")),
    ),
    // Figure 10: scaleup of CD/IDD/HD/DD/DD+comm.
    (
        "fig10",
        Args::Procs(fig10::default_procs, |procs| {
            emit(&fig10::run(procs), "fig10_scaleup")
        }),
    ),
];

/// Prints the usage line with the reason and exits 2.
fn usage(why: &str) -> ! {
    eprintln!("usage: exp <name>|all|--list [args]   ({why})");
    std::process::exit(2)
}

/// Positional arguments parsed as processor counts (each at least 1), or
/// the experiment's default.
fn procs_or(args: &[String], default: fn() -> Vec<usize>) -> Vec<usize> {
    if args.is_empty() {
        return default();
    }
    args.iter()
        .map(|a| {
            a.parse()
                .ok()
                .filter(|&p: &usize| p > 0)
                .unwrap_or_else(|| {
                    eprintln!("exp: bad processor count '{a}'");
                    std::process::exit(2)
                })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match args.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("", &[][..]),
    };
    match (name, EXPERIMENTS.iter().find(|(n, _)| *n == name)) {
        ("--list" | "all", _) if !rest.is_empty() => usage(&format!("'{name}' takes no arguments")),
        ("--list", _) => {
            for (name, _) in EXPERIMENTS {
                println!("{name}");
            }
        }
        ("all", _) => {
            for (_, args) in EXPERIMENTS {
                match args {
                    Args::None(run) => run(),
                    Args::Procs(default, run) => run(&default()),
                }
            }
        }
        (_, Some((_, Args::None(run)))) if rest.is_empty() => run(),
        (_, Some((_, Args::None(_)))) => usage(&format!("'{name}' takes no arguments")),
        (_, Some((_, Args::Procs(default, run)))) => run(&procs_or(rest, *default)),
        (_, None) => usage(&format!("no experiment '{name}'")),
    }
}
