//! The `gen`, `mine`, `parallel`, and `model` subcommands.

use crate::args::{ArgError, Args};
use armine_core::apriori::{Apriori, AprioriParams, FrequentItemsets, MinSupport};
use armine_core::counter::CounterBackend;
use armine_core::io::{read_transactions_auto, write_transaction_stream};
use armine_core::model::{
    cd_time, dd_time, hd_beats_cd_window, hd_time, idd_time, serial_time, CostParams, Workload,
};
use armine_core::rules::top_rules;
use armine_core::stats::dataset_stats;
use armine_core::summaries::{closed_itemsets, maximal_itemsets};
use armine_core::ItemSet;
use armine_datagen::QuestParams;
use armine_mpsim::{ClusterProfile, ExecBackend, FaultPlan, MachineProfile};
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams, PlacementPolicy};
use std::io::Write;

type Out<'a> = &'a mut dyn Write;

/// One row of a closed-set flag's table: the value's spelling and what
/// it selects. [`choice`] resolves a flag against such a table.
type Named<T> = (&'static str, T);

/// Usage text printed by `armine help`.
const USAGE: &str = "\
armine — scalable parallel association-rule mining (Han/Karypis/Kumar, SIGMOD'97)

USAGE:
  armine gen      --out FILE --transactions N [--items N] [--patterns N]
                  [--avg-len T] [--pattern-len I] [--seed S] [--format text|binary]
  armine mine     --input FILE --min-support FRAC [--min-count N]
                  [--max-k K] [--rules MIN_CONF] [--top N]
                  [--counter hashtree|trie|vertical]
  armine parallel --input FILE --algorithm ALGO --procs P --min-support FRAC
                  [--machine t3e|sp2|ideal] [--group-threshold M]
                  [--page-size N] [--memory-capacity N] [--max-k K]
                  [--eld-permille N] [--buckets B] [--filter-passes N]
                  [--counter hashtree|trie|vertical] [--backend sim|native]
                  [--cluster FILE]      (heterogeneous cluster profile: a
                                         base machine plus per-rank speed
                                         factors; see experiments/clusters)
                  [--placement static|adaptive]
                                        (adaptive re-scores per-rank work
                                         shares at every pass boundary)
                  [--fault-plan FILE]   (see experiments/faults/*.plan)
                  [--metrics-json FILE] (write the run's labeled metrics
                                         snapshot as schema-versioned JSON)
  armine model    --n N --m M --c C --s S --procs P [--g G] [--machine t3e|sp2]
  armine stats    --input FILE [--top N]
  armine summary  --input FILE --min-support FRAC [--max-k K] [--kind maximal|closed]
  armine help

ALGO: cd | npa | dd | dd-comm | idd | idd-1src | hd | hpa | pdm

BACKEND: sim (default) prices the run on a virtual clock; native runs the
same formulation at full speed on host threads and reports measured
wall-clock times. Fault plans run on either backend: sim injects faults
on the virtual clock, native injects them for real (thread deaths,
sleeps, retransmit timers) and recovers identically.
";

/// Parses the subcommand and runs it.
pub(crate) fn dispatch(argv: &[String], out: Out) -> Result<(), Box<dyn std::error::Error>> {
    let (cmd, rest) = argv
        .split_first()
        .ok_or_else(|| ArgError("no subcommand given".into()))?;
    match cmd.as_str() {
        "gen" => cmd_gen(&Args::parse(rest)?, out),
        "mine" => cmd_mine(&Args::parse(rest)?, out),
        "parallel" => cmd_parallel(&Args::parse(rest)?, out),
        "model" => cmd_model(&Args::parse(rest)?, out),
        "stats" => cmd_stats(&Args::parse(rest)?, out),
        "summary" => cmd_summary(&Args::parse(rest)?, out),
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(ArgError(format!("unknown subcommand {other:?}")).into()),
    }
}

/// Rejects an out-of-range flag value where it enters, in the `--counter`
/// convention: name the flag, the value, and the valid range. The library
/// asserts these ranges; the CLI must never reach the assert.
fn in_range<T: std::fmt::Display>(
    flag: &str,
    value: T,
    ok: impl Fn(&T) -> bool,
    valid: &str,
) -> Result<T, ArgError> {
    if ok(&value) {
        Ok(value)
    } else {
        Err(ArgError(format!(
            "--{flag}: invalid value {value} (valid: {valid})"
        )))
    }
}

fn fraction(flag: &str, value: f64) -> Result<f64, ArgError> {
    in_range(flag, value, |f| (0.0..=1.0).contains(f), "0.0 to 1.0")
}

fn at_least_one<T: std::fmt::Display + PartialOrd + From<u8>>(
    flag: &str,
    value: T,
) -> Result<T, ArgError> {
    in_range(flag, value, |v| *v >= T::from(1), "1 or more")
}

/// A flag that may be absent but, when given, is at least 1 (a limit of 0
/// would otherwise be read as 1 or ignored).
fn optional_at_least_one<T>(args: &Args, flag: &str) -> Result<Option<T>, ArgError>
where
    T: std::str::FromStr + std::fmt::Display + PartialOrd + From<u8>,
{
    let value = args.optional(flag)?;
    value.map(|v| at_least_one(flag, v)).transpose()
}

/// `gen --format`: each on-disk format and whether it is the binary one.
const FORMATS: [Named<bool>; 2] = [("text", false), ("binary", true)];

fn cmd_gen(args: &Args, out: Out) -> Result<(), Box<dyn std::error::Error>> {
    let path: String = args.required("out")?;
    let params = QuestParams::paper_t15_i6()
        .num_transactions(args.required("transactions")?)
        .num_items(at_least_one("items", args.or_default("items", 1000u32)?)?)
        .num_patterns(at_least_one(
            "patterns",
            args.or_default("patterns", 2000usize)?,
        )?)
        // The Poisson sampler's range; it clamps a pattern mean of 0 itself.
        .avg_transaction_len(in_range(
            "avg-len",
            args.or_default("avg-len", 15.0)?,
            |mean| *mean > 0.0 && *mean <= 700.0,
            "above 0, at most 700",
        )?)
        .avg_pattern_len(in_range(
            "pattern-len",
            args.or_default("pattern-len", 6.0)?,
            |mean| (0.0..=700.0).contains(mean),
            "0 to 700",
        )?)
        .seed(args.or_default("seed", 0)?);
    let format: String = args.or_default("format", "text".into())?;
    let (_, binary) = choice("format", &format, &FORMATS, |f| f.0)?;
    args.finish()?;
    // Generator to file, one transaction at a time: nothing is held but the
    // generator's buffers and the writer's block.
    let header = binary.then_some((params.num_items, params.num_transactions as u64));
    let mut total_len = 0usize;
    write_transaction_stream(std::fs::File::create(&path)?, header, |sink| {
        params.stream(|tid, items| {
            total_len += items.len();
            sink(tid, items)
        })
    })?;
    writeln!(
        out,
        "wrote {} ({} transactions, {} items, avg length {:.1}) to {path}",
        params.name(),
        params.num_transactions,
        params.num_items,
        total_len as f64 / params.num_transactions.max(1) as f64
    )?;
    Ok(())
}

fn min_support(args: &Args) -> Result<MinSupport, ArgError> {
    match (
        args.optional::<f64>("min-support")?,
        args.optional::<u64>("min-count")?,
    ) {
        (Some(_), Some(_)) => Err(ArgError(
            "give either --min-support or --min-count, not both".into(),
        )),
        (Some(f), None) => fraction("min-support", f).map(MinSupport::Fraction),
        (None, Some(c)) => at_least_one("min-count", c).map(MinSupport::Count),
        (None, None) => Err(ArgError("need --min-support FRAC or --min-count N".into())),
    }
}

fn cmd_mine(args: &Args, out: Out) -> Result<(), Box<dyn std::error::Error>> {
    let input: String = args.required("input")?;
    let support = min_support(args)?;
    let max_k: Option<usize> = optional_at_least_one(args, "max-k")?;
    let rules_conf: Option<f64> = args
        .optional("rules")?
        .map(|conf| fraction("rules", conf))
        .transpose()?;
    let top: usize = args.or_default("top", 20)?;
    let counter = parse_counter(args)?;
    args.finish()?;

    let dataset = read_transactions_auto(&input)?;
    let mut params = AprioriParams::with_min_support_count(0);
    params.min_support = support;
    params.max_k = max_k;
    params.counter = counter;
    let started = std::time::Instant::now();
    let run = Apriori::new(params).mine(dataset.transactions());
    writeln!(
        out,
        "{} transactions, min count {}: {} frequent itemsets in {} passes ({:.2}s)",
        dataset.len(),
        run.min_count,
        run.frequent.len(),
        run.passes.len(),
        started.elapsed().as_secs_f64()
    )?;
    for pass in &run.passes {
        writeln!(
            out,
            "  pass {:>2}: {:>8} candidates -> {:>8} frequent ({} scan{})",
            pass.k,
            pass.candidates,
            pass.frequent,
            pass.db_scans,
            if pass.db_scans == 1 { "" } else { "s" }
        )?;
    }
    if let Some(conf) = rules_conf {
        let (count, best) = top_rules(&run.frequent, conf, top);
        writeln!(out, "{count} rules at confidence >= {:.0}%:", conf * 100.0)?;
        for rule in &best {
            writeln!(out, "  {rule}")?;
        }
    }
    Ok(())
}

type MakeAlgorithm = fn(&Args) -> Result<Algorithm, ArgError>;

/// `parallel --algorithm`: each formulation and the flags it alone reads.
const ALGORITHMS: [Named<MakeAlgorithm>; 9] = [
    ("cd", |_| Ok(Algorithm::Cd)),
    ("npa", |_| Ok(Algorithm::Npa)),
    ("dd", |_| Ok(Algorithm::Dd)),
    ("dd-comm", |_| Ok(Algorithm::DdComm)),
    ("idd", |_| Ok(Algorithm::Idd)),
    ("idd-1src", |_| Ok(Algorithm::IddSingleSource)),
    ("hd", |args| {
        let m = args.or_default("group-threshold", 1000usize)?;
        Ok(Algorithm::Hd {
            group_threshold: at_least_one("group-threshold", m)?,
        })
    }),
    ("hpa", |args| {
        let permille = args.or_default("eld-permille", 0)?;
        Ok(Algorithm::Hpa {
            eld_permille: in_range("eld-permille", permille, |p| *p <= 1000, "0 to 1000")?,
        })
    }),
    ("pdm", |args| {
        Ok(Algorithm::Pdm {
            buckets: at_least_one("buckets", args.or_default("buckets", 1usize << 15)?)?,
            filter_passes: args.or_default("filter-passes", 1)?,
        })
    }),
];

fn parse_algorithm(args: &Args) -> Result<Algorithm, ArgError> {
    let name: String = args.required("algorithm")?;
    let (_, make) = choice("algorithm", &name, &ALGORITHMS, |a| a.0)?;
    make(args)
}

/// Looks `name` up in `all` by `name_of` (ASCII case-insensitive): the
/// one place a closed-set flag value is resolved or refused.
fn choice<T: Copy>(
    what: &str,
    name: &str,
    all: &[T],
    name_of: impl Fn(&T) -> &'static str,
) -> Result<T, ArgError> {
    all.iter()
        .find(|c| name_of(c).eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| {
            let valid: Vec<&str> = all.iter().map(&name_of).collect();
            ArgError(format!(
                "unknown {what} {name:?} (valid: {})",
                valid.join(", ")
            ))
        })
}

fn parse_counter(args: &Args) -> Result<CounterBackend, ArgError> {
    let name: String = args.or_default("counter", "hashtree".into())?;
    choice("counter backend", &name, &CounterBackend::ALL, |b| b.name())
}

fn cmd_parallel(args: &Args, out: Out) -> Result<(), Box<dyn std::error::Error>> {
    let input: String = args.required("input")?;
    let procs: usize = at_least_one("procs", args.required("procs")?)?;
    let algorithm = parse_algorithm(args)?;
    let machine_arg: Option<String> = args.optional("machine")?;
    let cluster_path: Option<String> = args.optional("cluster")?;
    let support = min_support(args)?;
    let mut params = ParallelParams::with_min_support_count(0);
    params.min_support = support;
    params.page_size = at_least_one("page-size", args.or_default("page-size", 1000)?)?;
    params.max_k = optional_at_least_one(args, "max-k")?;
    params.memory_capacity = optional_at_least_one(args, "memory-capacity")?;
    params.counter = parse_counter(args)?;
    let placement: String = args.or_default("placement", "static".into())?;
    params.placement = choice("placement", &placement, &PlacementPolicy::ALL, |p| p.name())?;
    let backend: String = args.or_default("backend", "sim".into())?;
    let backend = choice("backend", &backend, &ExecBackend::ALL, |b| b.name())?;
    let plan_path: Option<String> = args.optional("fault-plan")?;
    let metrics_path: Option<String> = args.optional("metrics-json")?;
    args.finish()?;
    let plan = match &plan_path {
        Some(path) => Some(FaultPlan::load(path).map_err(ArgError)?),
        None => None,
    };
    let cluster = match (&cluster_path, &machine_arg) {
        (Some(_), Some(_)) => {
            return Err(ArgError("give either --machine or --cluster, not both".into()).into())
        }
        (Some(path), None) => {
            let cluster = ClusterProfile::load(path).map_err(ArgError)?;
            cluster.validate_for_procs(procs).map_err(ArgError)?;
            cluster
        }
        (None, name) => {
            let name = name.as_deref().unwrap_or("t3e");
            let (_, make) = choice("machine", name, &MachineProfile::PRESETS, |p| p.0)?;
            ClusterProfile::uniform(make())
        }
    };

    let dataset = read_transactions_auto(&input)?;
    let machine_name = if cluster.is_uniform() {
        cluster.base().name.clone()
    } else {
        format!("{} [{}]", cluster.base().name, cluster.label())
    };
    let miner = ParallelMiner::new(procs).cluster(cluster).backend(backend);
    let started = std::time::Instant::now();
    let run = match &plan {
        Some(plan) => miner.mine_with_faults(algorithm, &dataset, &params, Some(plan))?,
        None => miner.mine(algorithm, &dataset, &params),
    };
    match backend {
        ExecBackend::Sim => {
            writeln!(
                out,
                "{} on {} simulated {} processors ({} transactions, min count {}):",
                run.algorithm,
                procs,
                machine_name,
                dataset.len(),
                run.min_count
            )?;
            writeln!(
                out,
                "  virtual response time {:.3} ms   (wall {:.2}s, {} frequent itemsets)",
                run.response_time * 1e3,
                started.elapsed().as_secs_f64(),
                run.frequent.len()
            )?;
        }
        ExecBackend::Native => {
            writeln!(
                out,
                "{} on {} native worker threads ({} transactions, min count {}):",
                run.algorithm,
                procs,
                dataset.len(),
                run.min_count
            )?;
            writeln!(
                out,
                "  measured response time {:.3} ms   (wall {:.2}s, {} frequent itemsets)",
                run.response_time * 1e3,
                started.elapsed().as_secs_f64(),
                run.frequent.len()
            )?;
            let counting: f64 = run.ranks.iter().map(|r| r.busy).sum();
            let exchange: f64 = run.ranks.iter().map(|r| r.idle).sum();
            let io: f64 = run.ranks.iter().map(|r| r.io).sum();
            writeln!(
                out,
                "  per-rank wall time: {:.3} ms counting, {:.3} ms exchange, {:.3} ms io (summed)",
                counting * 1e3,
                exchange * 1e3,
                io * 1e3
            )?;
        }
    }
    writeln!(
        out,
        "  {} MB moved, compute imbalance {:.1}%",
        run.total_bytes() / 1_000_000,
        run.compute_imbalance() * 100.0
    )?;
    if let Some(plan) = &plan {
        let crashed = plan.crashed_ranks();
        writeln!(
            out,
            "  faults: {} retransmits, {} detector timeouts, {} recoveries ({} crashed of {} ranks)",
            run.total_retransmits(),
            run.total_timeouts(),
            run.total_recoveries(),
            crashed.len(),
            procs
        )?;
    }
    for pass in &run.passes {
        writeln!(
            out,
            "  pass {:>2}: {:>8} candidates, grid {}x{}, {:>9.3} ms",
            pass.k,
            pass.candidates,
            pass.grid.0,
            pass.grid.1,
            pass.time * 1e3
        )?;
    }
    if let Some(path) = &metrics_path {
        let doc = armine_metrics::json::BenchDocument::new("parallel_mine", run.metrics.clone())
            .with_context("input", armine_metrics::json::JsonValue::Str(input.clone()))
            .with_context(
                "transactions",
                armine_metrics::json::JsonValue::UInt(dataset.len() as u64),
            );
        doc.write_to(std::path::Path::new(path))?;
        writeln!(out, "  metrics snapshot written to {path}")?;
    }
    Ok(())
}

/// `model --machine`: the machines Section IV has cost constants for.
const MODEL_MACHINES: [Named<fn() -> CostParams>; 2] =
    [("t3e", CostParams::cray_t3e), ("sp2", CostParams::ibm_sp2)];

fn cmd_model(args: &Args, out: Out) -> Result<(), Box<dyn std::error::Error>> {
    // The closed forms take any f64; only these ranges describe a run.
    let size = |flag: &str| -> Result<f64, ArgError> {
        let ok = |v: &f64| v.is_finite() && *v >= 0.0;
        in_range(flag, args.required(flag)?, ok, "finite, 0 or more")
    };
    let w = Workload {
        n: size("n")?,
        m: size("m")?,
        c: size("c")?,
        s: size("s")?,
    };
    let procs: f64 = in_range(
        "procs",
        args.required("procs")?,
        |p: &f64| p.is_finite() && *p >= 1.0,
        "finite, 1 or more",
    )?;
    let g: f64 = in_range(
        "g",
        args.or_default("g", procs.sqrt().round())?,
        |g| (1.0..=procs).contains(g),
        &format!("1 to {procs}, the --procs value"),
    )?;
    let machine: String = args.or_default("machine", "t3e".into())?;
    let (_, cost_params) = choice("machine", &machine, &MODEL_MACHINES, |m| m.0)?;
    args.finish()?;
    let p = cost_params();
    writeln!(
        out,
        "Section IV closed forms (N={}, M={}, C={}, S={}, P={}, G={}):",
        w.n, w.m, w.c, w.s, procs, g
    )?;
    writeln!(out, "  serial  (Eq 3): {:>12.3} s", serial_time(&w, &p))?;
    writeln!(out, "  CD      (Eq 4): {:>12.3} s", cd_time(&w, procs, &p))?;
    writeln!(out, "  DD      (Eq 5): {:>12.3} s", dd_time(&w, procs, &p))?;
    writeln!(out, "  IDD     (Eq 6): {:>12.3} s", idd_time(&w, procs, &p))?;
    writeln!(
        out,
        "  HD      (Eq 7): {:>12.3} s",
        hd_time(&w, procs, g, &p)
    )?;
    match hd_beats_cd_window(w.m, w.n, procs) {
        Some((lo, hi)) => writeln!(out, "  HD beats CD for G in ({lo:.1}, {hi:.1}) (Eq 8)")?,
        None => writeln!(out, "  Eq 8 window empty: HD should pick G=1 (= CD)")?,
    }
    Ok(())
}

fn cmd_stats(args: &Args, out: Out) -> Result<(), Box<dyn std::error::Error>> {
    let input: String = args.required("input")?;
    let top: usize = args.or_default("top", 10)?;
    args.finish()?;
    let dataset = read_transactions_auto(&input)?;
    writeln!(out, "{}", dataset_stats(&dataset, top))?;
    Ok(())
}

type Summarize = fn(&FrequentItemsets) -> Vec<(ItemSet, u64)>;

/// `summary --kind`: the lossless condensations of the lattice.
const SUMMARY_KINDS: [Named<Summarize>; 2] =
    [("maximal", maximal_itemsets), ("closed", closed_itemsets)];

fn cmd_summary(args: &Args, out: Out) -> Result<(), Box<dyn std::error::Error>> {
    let input: String = args.required("input")?;
    let support = min_support(args)?;
    let max_k: Option<usize> = optional_at_least_one(args, "max-k")?;
    let kind: String = args.or_default("kind", "maximal".into())?;
    let (kind, summarize) = choice("summary kind", &kind, &SUMMARY_KINDS, |k| k.0)?;
    args.finish()?;
    let dataset = read_transactions_auto(&input)?;
    let mut params = AprioriParams::with_min_support_count(0);
    params.min_support = support;
    params.max_k = max_k;
    let run = Apriori::new(params).mine(dataset.transactions());
    let summary = summarize(&run.frequent);
    writeln!(
        out,
        "{} frequent itemsets -> {} {kind} itemsets",
        run.frequent.len(),
        summary.len()
    )?;
    for (set, count) in &summary {
        writeln!(out, "  {set}  σ = {count}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::argv;
    use armine_core::rules::generate_rules;

    fn run_ok(parts: &[&str]) -> String {
        let mut out = Vec::new();
        dispatch(&argv(parts), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn run_err(parts: &[&str]) -> String {
        let mut out = Vec::new();
        dispatch(&argv(parts), &mut out).unwrap_err().to_string()
    }

    fn temp(name: &str) -> String {
        let dir = std::env::temp_dir().join("armine_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// The most unbuilt rules `top_rules` holds at `--top top`: where its
    /// selection cuts back.
    fn bound(top: usize) -> usize {
        2 * top + 64
    }

    /// `mine --rules --top N` prints the first `N` lines a stable sort of
    /// every rule would, for `N` below, at and above the rule count, and on
    /// either side of the selection's cut-back points.
    fn assert_top_is_the_head_of_a_stable_sort(db: &str, min_count: &str, conf: f64) {
        let dataset = read_transactions_auto(db).unwrap();
        let params = AprioriParams::with_min_support_count(min_count.parse().unwrap()).max_k(3);
        let run = Apriori::new(params).mine(dataset.transactions());
        let mut rules = generate_rules(&run.frequent, conf);
        rules.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .unwrap()
                .then(b.support_count.cmp(&a.support_count))
        });
        let tied = rules
            .windows(2)
            .filter(|w| w[0].confidence == w[1].confidence)
            .filter(|w| w[0].support_count == w[1].support_count)
            .count();
        assert!(
            tied >= 10,
            "only {tied} ties in {db}: order is not at stake"
        );
        let conf = conf.to_string();
        let (slack, buffer) = (bound(0), bound(1));
        let near_cuts = [slack - 1, slack, slack + 1, buffer - 1, buffer, buffer + 1];
        let tops = [0, 1, rules.len() / 2, rules.len(), rules.len() + 7];
        for top in tops.into_iter().chain(near_cuts) {
            let top_flag = top.to_string();
            let o = run_ok(&[
                "mine",
                "--input",
                db,
                "--min-count",
                min_count,
                "--max-k",
                "3",
                "--rules",
                &conf,
                "--top",
                &top_flag,
            ]);
            let printed: Vec<&str> = o
                .lines()
                .skip_while(|line| !line.contains("rules at confidence"))
                .collect();
            assert!(printed[0].starts_with(&format!("{} rules at", rules.len())));
            let want: Vec<String> = rules.iter().take(top).map(|r| format!("  {r}")).collect();
            assert_eq!(printed[1..], want, "--top {top} on {db}");
        }
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand() {
        assert!(run_err(&["frobnicate"]).contains("frobnicate"));
    }

    #[test]
    fn gen_then_mine_then_parallel() {
        let db = temp("pipeline.txt");
        let o = run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "300",
            "--items",
            "60",
            "--patterns",
            "20",
            "--seed",
            "3",
        ]);
        assert!(o.contains("300 transactions"));

        let o = run_ok(&[
            "mine",
            "--input",
            &db,
            "--min-support",
            "0.03",
            "--max-k",
            "3",
            "--rules",
            "0.7",
        ]);
        assert!(o.contains("frequent itemsets"));
        assert!(o.contains("pass  2"));
        assert_top_is_the_head_of_a_stable_sort(&db, "9", 0.7);

        // Forty rules tied at 100% confidence and one support count, in
        // two blocks the generator emits one after the other.
        let ties = temp("ties.txt");
        let baskets = ["1 2 3 4", "5 6 7 8", "1 2 9", "5 6 9"];
        let lines: Vec<String> = (0..44)
            .map(|tid| format!("{tid}: {}", baskets[tid % 2 + 2 * (tid / 40)]))
            .collect();
        std::fs::write(&ties, lines.join("\n")).unwrap();
        assert_top_is_the_head_of_a_stable_sort(&ties, "2", 0.5);

        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "hd",
            "--procs",
            "4",
            "--min-support",
            "0.03",
            "--max-k",
            "3",
        ]);
        assert!(o.contains("HD on 4 simulated"));
        assert!(o.contains("virtual response time"));
    }

    /// Forty groups of four items that always occur together, two to four
    /// times each: 1,440 rules at 100% confidence in three support tiers,
    /// over twenty times the selection's buffer at `--top 1`, so `--top`
    /// is decided by generation order through many cut-backs.
    #[test]
    fn top_survives_many_cut_backs_on_tied_rules() {
        let db = temp("tied_groups.txt");
        let mut lines = Vec::new();
        for group in 0..40u32 {
            let items: Vec<String> = (4 * group..4 * group + 4).map(|i| i.to_string()).collect();
            for _ in 0..2 + group % 3 {
                lines.push(format!("{}: {}", lines.len(), items.join(" ")));
            }
        }
        std::fs::write(&db, lines.join("\n")).unwrap();
        let dataset = read_transactions_auto(&db).unwrap();
        let run = Apriori::new(AprioriParams::with_min_support_count(2).max_k(3))
            .mine(dataset.transactions());
        let rules = generate_rules(&run.frequent, 0.5);
        assert_eq!(rules.len(), 40 * (6 * 2 + 4 * 6));
        assert!(rules.iter().all(|r| r.confidence == 1.0));
        assert!(rules.len() > 20 * bound(1));
        assert_top_is_the_head_of_a_stable_sort(&db, "2", 0.5);
    }

    #[test]
    fn mine_requires_exactly_one_support_flavour() {
        let db = temp("sup.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "50",
            "--items",
            "20",
            "--patterns",
            "5",
        ]);
        assert!(run_err(&["mine", "--input", &db]).contains("min-support"));
        assert!(run_err(&[
            "mine",
            "--input",
            &db,
            "--min-support",
            "0.1",
            "--min-count",
            "3",
        ])
        .contains("not both"));
        // min-count alone works.
        let o = run_ok(&["mine", "--input", &db, "--min-count", "5", "--max-k", "2"]);
        assert!(o.contains("min count 5"));
    }

    /// Every one of these reached a library `assert!` (a backtrace, one on
    /// a rank thread) before the flag boundary checked ranges.
    #[test]
    fn out_of_range_flag_values_exit_2_without_panicking() {
        let db = temp("ranges.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "50",
            "--items",
            "20",
            "--patterns",
            "5",
        ]);
        let out = temp("ranges_out.txt");
        let hd = ["parallel", "--input", &db, "--algorithm", "hd"];
        let pdm = ["parallel", "--input", &db, "--algorithm", "pdm"];
        let gen = ["gen", "--out", &out, "--transactions", "10"];
        let model = [
            "model", "--n", "1000", "--m", "100", "--c", "10", "--s", "4",
        ];
        fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
            [base, extra].concat()
        }
        // `model` at P = 4 with one size flag's value replaced.
        fn model_with<'a>(flag: &str, value: &'a str) -> Vec<&'a str> {
            let mut parts = vec![
                "model", "--n", "1000", "--m", "100", "--c", "10", "--s", "4", "--procs", "4",
            ];
            let at = parts.iter().position(|p| *p == flag).unwrap();
            parts[at + 1] = value;
            parts
        }
        let cases: Vec<(Vec<&str>, &str, &str)> = vec![
            (
                with(&hd, &["--procs", "0", "--min-count", "3"]),
                "--procs",
                "0",
            ),
            (
                with(
                    &hd,
                    &["--procs", "2", "--min-count", "3", "--group-threshold", "0"],
                ),
                "--group-threshold",
                "0",
            ),
            (
                with(&hd, &["--procs", "2", "--min-support", "1.5"]),
                "--min-support",
                "1.5",
            ),
            (
                vec!["mine", "--input", &db, "--min-support", "1.5"],
                "--min-support",
                "1.5",
            ),
            (
                vec!["mine", "--input", &db, "--min-support", "-0.5"],
                "--min-support",
                "-0.5",
            ),
            (
                vec!["mine", "--input", &db, "--min-support", "nan"],
                "--min-support",
                "NaN",
            ),
            (
                vec!["mine", "--input", &db, "--min-count", "3", "--rules", "1.5"],
                "--rules",
                "1.5",
            ),
            (
                vec!["mine", "--input", &db, "--min-count", "0"],
                "--min-count",
                "0",
            ),
            (
                with(&hd, &["--procs", "2", "--min-count", "0"]),
                "--min-count",
                "0",
            ),
            (
                vec!["summary", "--input", &db, "--min-count", "0"],
                "--min-count",
                "0",
            ),
            (with(&gen, &["--items", "0"]), "--items", "0"),
            (with(&gen, &["--patterns", "0"]), "--patterns", "0"),
            (with(&gen, &["--avg-len", "0"]), "--avg-len", "0"),
            (with(&gen, &["--avg-len", "-1"]), "--avg-len", "-1"),
            (with(&gen, &["--avg-len", "nan"]), "--avg-len", "NaN"),
            (with(&gen, &["--avg-len", "inf"]), "--avg-len", "inf"),
            (with(&gen, &["--avg-len", "701"]), "--avg-len", "701"),
            (
                with(&gen, &["--pattern-len", "inf"]),
                "--pattern-len",
                "inf",
            ),
            (
                with(
                    &pdm,
                    &["--procs", "2", "--min-count", "3", "--buckets", "0"],
                ),
                "--buckets",
                "0",
            ),
            (with(&model, &["--procs", "0"]), "--procs", "0"),
            (with(&model, &["--procs", "-4"]), "--procs", "-4"),
            (with(&model, &["--procs", "nan"]), "--procs", "NaN"),
            (with(&model, &["--procs", "inf"]), "--procs", "inf"),
            // G was clamped to [1, P] by the model while the header
            // printed the G given; NaN, negative and infinite sizes
            // printed NaN, negative or infinite seconds.
            (with(&model, &["--procs", "4", "--g", "0"]), "--g", "0"),
            (with(&model, &["--procs", "4", "--g", "-2"]), "--g", "-2"),
            (with(&model, &["--procs", "4", "--g", "9"]), "--g", "9"),
            (with(&model, &["--procs", "4", "--g", "nan"]), "--g", "NaN"),
            (model_with("--n", "-1000"), "--n", "-1000"),
            (model_with("--n", "inf"), "--n", "inf"),
            (model_with("--m", "nan"), "--m", "NaN"),
            (model_with("--c", "-1"), "--c", "-1"),
            (model_with("--s", "inf"), "--s", "inf"),
            // Limits of zero were read as one (page size, memory capacity)
            // or ignored (pass cap), and a per-mille above 1000 as 1000.
            (
                with(
                    &hd,
                    &["--procs", "2", "--min-count", "3", "--page-size", "0"],
                ),
                "--page-size",
                "0",
            ),
            (
                with(
                    &hd,
                    &["--procs", "2", "--min-count", "3", "--memory-capacity", "0"],
                ),
                "--memory-capacity",
                "0",
            ),
            (
                with(&hd, &["--procs", "2", "--min-count", "3", "--max-k", "0"]),
                "--max-k",
                "0",
            ),
            (
                vec!["mine", "--input", &db, "--min-count", "3", "--max-k", "0"],
                "--max-k",
                "0",
            ),
            (
                vec![
                    "summary",
                    "--input",
                    &db,
                    "--min-count",
                    "3",
                    "--max-k",
                    "0",
                ],
                "--max-k",
                "0",
            ),
            (
                vec![
                    "parallel",
                    "--input",
                    &db,
                    "--algorithm",
                    "hpa",
                    "--procs",
                    "2",
                    "--min-count",
                    "3",
                    "--eld-permille",
                    "5000",
                ],
                "--eld-permille",
                "5000",
            ),
        ];
        for (parts, flag, value) in &cases {
            assert_eq!(crate::run(&argv(parts), &mut Vec::new()), 2, "{parts:?}");
            let err = run_err(parts);
            assert!(
                err.contains(flag) && err.contains(value) && err.contains("valid:"),
                "{parts:?}: {err}"
            );
        }
    }

    #[test]
    fn parallel_rejects_unknown_algorithm_and_machine() {
        let db = temp("alg.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "50",
            "--items",
            "20",
            "--patterns",
            "5",
        ]);
        assert!(run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "quantum",
            "--procs",
            "2",
            "--min-count",
            "2",
        ])
        .contains("quantum"));
        assert!(run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "2",
            "--machine",
            "cray-3",
        ])
        .contains("cray-3"));
    }

    /// Every closed-set flag is refused the same way — `unknown X "v"
    /// (valid: …)` — and before any work starts: `gen` writes no file and
    /// `summary` never opens its (missing) input.
    #[test]
    fn closed_set_flags_list_their_valid_values() {
        let unwritten = temp("closed-set-never-written.txt");
        let cases: [(&[&str], &str); 4] = [
            (
                &[
                    "gen",
                    "--out",
                    &unwritten,
                    "--transactions",
                    "1000000",
                    "--format",
                    "bogus",
                ],
                "unknown format \"bogus\" (valid: text, binary)",
            ),
            (
                &[
                    "parallel",
                    "--input",
                    &unwritten,
                    "--procs",
                    "2",
                    "--algorithm",
                    "quantum",
                ],
                "unknown algorithm \"quantum\" \
                 (valid: cd, npa, dd, dd-comm, idd, idd-1src, hd, hpa, pdm)",
            ),
            (
                &[
                    "model",
                    "--n",
                    "1",
                    "--m",
                    "1",
                    "--c",
                    "1",
                    "--s",
                    "1",
                    "--procs",
                    "2",
                    "--machine",
                    "cray-3",
                ],
                "unknown machine \"cray-3\" (valid: t3e, sp2)",
            ),
            (
                &[
                    "summary",
                    "--input",
                    &unwritten,
                    "--min-count",
                    "1",
                    "--kind",
                    "minimal",
                ],
                "unknown summary kind \"minimal\" (valid: maximal, closed)",
            ),
        ];
        for (argv, message) in cases {
            assert_eq!(run_err(argv), message, "{argv:?}");
        }
        assert!(!std::path::Path::new(&unwritten).exists());
    }

    #[test]
    fn counter_backend_selects_and_rejects() {
        let db = temp("counter.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "120",
            "--items",
            "40",
            "--patterns",
            "10",
            "--seed",
            "11",
        ]);
        // Both subcommands accept the trie backend end-to-end.
        let o = run_ok(&[
            "mine",
            "--input",
            &db,
            "--min-count",
            "4",
            "--max-k",
            "3",
            "--counter",
            "trie",
        ]);
        assert!(o.contains("frequent itemsets"));
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "idd",
            "--procs",
            "3",
            "--min-count",
            "4",
            "--max-k",
            "3",
            "--counter",
            "trie",
        ]);
        assert!(o.contains("IDD on 3 simulated"));
        // The vertical backend works end-to-end, and backend names are
        // accepted case-insensitively.
        let o = run_ok(&[
            "mine",
            "--input",
            &db,
            "--min-count",
            "4",
            "--max-k",
            "3",
            "--counter",
            "Vertical",
        ]);
        assert!(o.contains("frequent itemsets"));
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "3",
            "--min-count",
            "4",
            "--max-k",
            "3",
            "--counter",
            "vertical",
        ]);
        assert!(o.contains("CD on 3 simulated"));
        // Unknown backends are rejected by both subcommands, and the error
        // lists every valid backend name.
        let err = run_err(&[
            "mine",
            "--input",
            &db,
            "--min-count",
            "4",
            "--counter",
            "btree",
        ]);
        assert!(err.contains("btree"));
        assert!(
            err.contains("hashtree") && err.contains("trie") && err.contains("vertical"),
            "error should list valid backends: {err}"
        );
        assert!(run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "4",
            "--counter",
            "btree",
        ])
        .contains("btree"));
    }

    #[test]
    fn model_prints_all_equations() {
        let o = run_ok(&[
            "model", "--n", "1300000", "--m", "700000", "--c", "455", "--s", "16", "--procs", "64",
        ]);
        assert!(o.contains("Eq 3"));
        assert!(o.contains("Eq 7"));
        assert!(o.contains("Eq 8"));
    }

    #[test]
    fn stats_and_summary_subcommands() {
        let db = temp("stats.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "200",
            "--items",
            "40",
            "--patterns",
            "10",
            "--seed",
            "4",
        ]);
        let o = run_ok(&["stats", "--input", &db, "--top", "3"]);
        assert!(o.contains("200 transactions"));
        assert!(o.contains("Gini"));

        let o = run_ok(&[
            "summary",
            "--input",
            &db,
            "--min-support",
            "0.05",
            "--max-k",
            "3",
        ]);
        assert!(o.contains("maximal itemsets"));
        let o = run_ok(&[
            "summary",
            "--input",
            &db,
            "--min-support",
            "0.05",
            "--max-k",
            "3",
            "--kind",
            "closed",
        ]);
        assert!(o.contains("closed itemsets"));
        assert!(run_err(&[
            "summary",
            "--input",
            &db,
            "--min-support",
            "0.05",
            "--kind",
            "fancy",
        ])
        .contains("fancy"));
    }

    #[test]
    fn binary_format_pipeline() {
        let db = temp("pipeline.bin");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "100",
            "--items",
            "30",
            "--patterns",
            "8",
            "--format",
            "binary",
        ]);
        // Auto-detection lets every consumer read it.
        let o = run_ok(&["mine", "--input", &db, "--min-count", "4", "--max-k", "2"]);
        assert!(o.contains("100 transactions"));
        let o = run_ok(&["stats", "--input", &db]);
        assert!(o.contains("100 transactions"));
        assert!(run_err(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "5",
            "--format",
            "xml",
        ])
        .contains("xml"));
    }

    #[test]
    fn parallel_with_example_fault_plans() {
        let db = temp("faulted.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "200",
            "--items",
            "50",
            "--patterns",
            "15",
            "--seed",
            "9",
        ]);
        let faults_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments/faults");
        // A crash-free straggler grid works for every algorithm.
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "hd",
            "--procs",
            "8",
            "--min-support",
            "0.04",
            "--max-k",
            "3",
            "--fault-plan",
            &format!("{faults_dir}/straggler-grid.plan"),
        ]);
        assert!(o.contains("faults:"), "missing fault summary:\n{o}");
        assert!(o.contains("retransmits"));
        assert!(o.contains("0 crashed of 8 ranks"));
        // One crash per pass: the run recovers and reports the crashes.
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "8",
            "--min-support",
            "0.04",
            "--max-k",
            "3",
            "--fault-plan",
            &format!("{faults_dir}/single-crash-per-pass.plan"),
        ]);
        assert!(o.contains("2 crashed of 8 ranks"), "{o}");
        assert!(!o.contains(" 0 recoveries"), "expected recoveries:\n{o}");
    }

    #[test]
    fn parallel_fault_plan_errors_are_clean() {
        let db = temp("faulterr.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "60",
            "--items",
            "20",
            "--patterns",
            "5",
        ]);
        // Missing file.
        assert!(run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "3",
            "--fault-plan",
            "/nonexistent/plan",
        ])
        .contains("cannot read fault plan"));
        // Malformed plan file.
        let bad = temp("bad.plan");
        std::fs::write(&bad, "drop_rate = lots\n").unwrap();
        assert!(run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "3",
            "--fault-plan",
            &bad,
        ])
        .contains("invalid rate"));
        // A plan crashing a rank the run doesn't have is rejected.
        let oob = temp("oob.plan");
        std::fs::write(&oob, "crash 5 = pass:2\n").unwrap();
        assert!(run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "3",
            "--fault-plan",
            &oob,
        ])
        .contains("out of range"));
        // Every algorithm recovers from in-range crashes — NPA included.
        let crash = temp("npa.plan");
        std::fs::write(&crash, "crash 1 = pass:2\n").unwrap();
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "npa",
            "--procs",
            "4",
            "--min-count",
            "3",
            "--fault-plan",
            &crash,
        ]);
        assert!(o.contains("recoveries (1 crashed of 4 ranks)"), "{o}");
    }

    #[test]
    fn parallel_native_backend_runs_and_reports_wall_times() {
        let db = temp("native.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "300",
            "--items",
            "60",
            "--patterns",
            "20",
            "--seed",
            "7",
        ]);
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "4",
            "--min-support",
            "0.03",
            "--max-k",
            "3",
            "--backend",
            "native",
        ]);
        assert!(o.contains("CD on 4 native worker threads"), "{o}");
        assert!(o.contains("measured response time"), "{o}");
        assert!(o.contains("per-rank wall time"), "{o}");
        // Unknown backends are rejected with the valid set listed;
        // casing is forgiven like --counter.
        let err = run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "3",
            "--backend",
            "turbo",
        ]);
        assert!(err.contains("turbo"), "{err}");
        assert!(err.contains("valid: sim, native"), "{err}");
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "3",
            "--max-k",
            "3",
            "--backend",
            "NATIVE",
        ]);
        assert!(o.contains("native worker threads"), "{o}");
        // Fault plans run for real on the native backend.
        let plan = temp("native.plan");
        std::fs::write(&plan, "drop_rate = 0.1\nrto = 0.0002\ncrash 1 = pass:2\n").unwrap();
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "3",
            "--min-count",
            "3",
            "--max-k",
            "3",
            "--backend",
            "native",
            "--fault-plan",
            &plan,
        ]);
        assert!(o.contains("measured response time"), "{o}");
        assert!(o.contains("recoveries (1 crashed of 3 ranks)"), "{o}");
    }

    #[test]
    fn parallel_cluster_and_placement_flags() {
        let db = temp("hetero.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "300",
            "--items",
            "60",
            "--patterns",
            "20",
            "--seed",
            "13",
        ]);
        // A two-speed cluster file mines end-to-end under adaptive
        // placement; the sim output carries the cluster label.
        let cl = temp("two-speed.cluster");
        std::fs::write(&cl, "machine = t3e\nspeed 1 = 0.5\n").unwrap();
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "4",
            "--min-support",
            "0.03",
            "--max-k",
            "3",
            "--cluster",
            &cl,
            "--placement",
            "adaptive",
        ]);
        assert!(o.contains("t3e,speed1x0.5"), "{o}");
        assert!(o.contains("virtual response time"), "{o}");
        // The native backend takes the same flags; placement names are
        // accepted case-insensitively like --counter and --backend.
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "idd",
            "--procs",
            "4",
            "--min-support",
            "0.03",
            "--max-k",
            "3",
            "--backend",
            "native",
            "--cluster",
            &cl,
            "--placement",
            "ADAPTIVE",
        ]);
        assert!(o.contains("native worker threads"), "{o}");
        // Unknown placements are rejected with the valid set listed.
        let err = run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "3",
            "--placement",
            "magnetic",
        ]);
        assert!(err.contains("magnetic"), "{err}");
        assert!(err.contains("valid: static, adaptive"), "{err}");
        // --machine and --cluster are mutually exclusive.
        assert!(run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "3",
            "--machine",
            "t3e",
            "--cluster",
            &cl,
        ])
        .contains("not both"));
        // Missing and out-of-range cluster files fail cleanly.
        assert!(run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "3",
            "--cluster",
            "/nonexistent.cluster",
        ])
        .contains("cannot read cluster profile"));
        let oob = temp("oob.cluster");
        std::fs::write(&oob, "speed 9 = 0.5\n").unwrap();
        assert!(run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "3",
            "--cluster",
            &oob,
        ])
        .contains("out of range"));
    }

    #[test]
    fn parallel_machine_errors_list_the_valid_set() {
        let db = temp("machines.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "50",
            "--items",
            "20",
            "--patterns",
            "5",
        ]);
        let err = run_err(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "2",
            "--machine",
            "cray-3",
        ]);
        assert!(err.contains("valid: t3e, sp2, ideal"), "{err}");
        // Machine keys are case-insensitive.
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "2",
            "--max-k",
            "2",
            "--machine",
            "SP2",
        ]);
        assert!(o.contains("IBM SP2"), "{o}");
    }

    #[test]
    fn parallel_metrics_json_writes_the_runs_snapshot() {
        let db = temp("metrics.txt");
        run_ok(&[
            "gen",
            "--out",
            &db,
            "--transactions",
            "200",
            "--items",
            "40",
            "--patterns",
            "10",
            "--seed",
            "21",
        ]);
        let json_path = temp("metrics.json");
        let o = run_ok(&[
            "parallel",
            "--input",
            &db,
            "--algorithm",
            "cd",
            "--procs",
            "4",
            "--min-support",
            "0.03",
            "--max-k",
            "3",
            "--metrics-json",
            &json_path,
        ]);
        assert!(o.contains("metrics snapshot written"), "{o}");
        // The sim backend is deterministic: the same run through the
        // library is the document the file must hold, byte for byte.
        let dataset = read_transactions_auto(&db).unwrap();
        let run = ParallelMiner::new(4).mine(
            Algorithm::Cd,
            &dataset,
            &ParallelParams::with_min_support(0.03).max_k(3),
        );
        let doc = armine_metrics::json::BenchDocument::new("parallel_mine", run.metrics)
            .with_context("input", armine_metrics::json::JsonValue::Str(db.clone()))
            .with_context("transactions", armine_metrics::json::JsonValue::UInt(200));
        assert_eq!(std::fs::read_to_string(&json_path).unwrap(), doc.to_json());
        assert!(!doc.snapshot.is_empty());
        // The run's base labels made it into every series.
        for series in doc.snapshot.series() {
            assert_eq!(series.labels.get("algorithm"), Some("CD"), "{series:?}");
            assert_eq!(series.labels.get("procs"), Some("4"), "{series:?}");
            assert_eq!(series.labels.get("backend"), Some("sim"), "{series:?}");
        }
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn unknown_option_is_an_error() {
        assert!(
            run_err(&["gen", "--out", "x", "--transactions", "5", "--bogus", "1"])
                .contains("--bogus")
        );
    }
}
