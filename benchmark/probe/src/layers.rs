//! Every call the probe makes into the program, in one file: this is the
//! benchmark's API contract with the crates (see benchmark/README.md). A
//! refactor that changes one of these signatures must come with a
//! benchmark change. Each call is timed from outside with a span; nothing
//! here reaches below a crate's public items.
//!
//! Public items called:
//!   armine_datagen  QuestParams::{paper_t15_i6, builder setters, generate}
//!   armine_core     io::{read_transactions_auto, write_transactions_file,
//!                       write_transactions_binary}
//!                   Dataset::{transactions, len, partition}
//!                   apriori::{Apriori::mine, AprioriParams, MinSupport,
//!                             apriori_gen, FrequentItemsets::from_levels}
//!                   counter::{CounterBackend::build, CandidateCounter::{
//!                             count_all, frequent, count_vector, stats},
//!                             CounterStats::{named_fields, merged}}
//!                   hashtree::{HashTreeParams::default, OwnershipFilter::all}
//!                   rules::generate_rules
//!   armine_parallel ParallelMiner::{new, backend, mine}, ParallelParams,
//!                   Algorithm, ParallelRun fields
//!   armine_mpsim    Simulator::{new, run}, ExecBackend, RankStats and
//!                   WallTimings fields
//!   armine_metrics  json::BenchDocument::{new, to_json}, MetricsSnapshot::len

use crate::trace::{Labels, Tracer};
use crate::Flags;
use armine_core::apriori::{apriori_gen, Apriori, AprioriParams, FrequentItemsets, MinSupport};
use armine_core::counter::{CounterBackend, CounterStats};
use armine_core::hashtree::{HashTreeParams, OwnershipFilter};
use armine_core::io::{read_transactions_auto, write_transactions_binary, write_transactions_file};
use armine_core::rules::generate_rules;
use armine_core::{Dataset, ItemSet, Transaction};
use armine_datagen::QuestParams;
use armine_metrics::json::BenchDocument;
use armine_mpsim::{ExecBackend, Simulator};
use armine_parallel::{Algorithm, ParallelMiner, ParallelParams, ParallelRun};
use std::collections::BTreeMap;
use std::hint::black_box;

/// A per-layer metric value: counts stay integers so they compare exactly.
#[derive(Clone, Copy, PartialEq)]
pub enum Value {
    Count(u64),
    Real(f64),
}

/// Per-layer metrics by the name BENCHMARK.json declares them under.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Value>);

impl Metrics {
    fn real(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), Value::Real(value));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.0.insert(name.to_owned(), Value::Count(value));
    }
}

/// The [`CounterStats`] fields reported as `counter.<b>.<field>`.
const LEDGER_FIELDS: [&str; 5] = [
    "inserts",
    "traversal_steps",
    "distinct_leaf_visits",
    "candidate_checks",
    "intersection_words",
];

/// What the workload's job must print, recomputed here from the same file.
#[derive(Default)]
pub struct Reference {
    pub transactions: usize,
    pub min_count: u64,
    /// `(candidates, frequent)` per executed pass, from k = 1.
    pub passes: Vec<(usize, usize)>,
    pub itemsets: usize,
    pub rules: Option<usize>,
    /// The simulator's response time as the CLI prints it (ms, 3 decimals).
    pub virtual_ms: Option<String>,
}

/// `levels[k - 1]` is F_k with its support counts.
type Levels = Vec<Vec<(ItemSet, u64)>>;

const REFERENCE_BACKENDS: [CounterBackend; 2] = [CounterBackend::Trie, CounterBackend::Vertical];

fn job_counter(flags: &Flags) -> Result<CounterBackend, String> {
    let name = flags.get("counter").unwrap_or("hashtree");
    CounterBackend::parse(name).ok_or_else(|| format!("unknown counter {name:?}"))
}

fn load(t: &mut Tracer, m: &mut Metrics, flags: &Flags, on_path: bool) -> Result<Dataset, String> {
    let path = flags.get("input").ok_or("missing --input")?;
    let (dataset, secs) = t.span("io.load_text", Labels::default(), on_path, |_| {
        read_transactions_auto(path)
    });
    let dataset = dataset.map_err(|e| format!("{path}: {e}"))?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    m.count("io.file_bytes", bytes);
    m.real("io.load_text_s", secs);
    m.real("io.load_text_mb_per_s", bytes as f64 / 1e6 / secs);
    Ok(dataset)
}

/// Per-backend accumulators of [`mine_levelwise`].
#[derive(Default)]
struct BackendTotals {
    build_s: f64,
    count_k2_s: f64,
    count_deep_s: f64,
    extract_s: f64,
    counted_passes: usize,
    ledger: CounterStats,
    hits: u64,
}

/// Apriori pass by pass with a span around every layer call, counting each
/// pass with every backend in `backends` and failing unless they all find
/// the same frequent level. `job` is the backend the workload's own job
/// counts with (its spans are on the job's path), if the job runs this
/// serial loop at all.
fn mine_levelwise(
    t: &mut Tracer,
    m: &mut Metrics,
    transactions: &[Transaction],
    flags: &Flags,
    backends: &[CounterBackend],
    job: Option<CounterBackend>,
) -> Result<(Reference, Levels), String> {
    let max_k: Option<usize> = flags.optional("max-k")?;
    let mut pass1 = AprioriParams::with_min_support_count(0).max_k(1);
    pass1.min_support = MinSupport::Fraction(flags.required("min-support")?);
    let (run, pass1_s) = t.span(
        "apriori.pass1",
        Labels {
            k: Some(1),
            ..Labels::default()
        },
        job.is_some(),
        |_| Apriori::new(pass1).mine(transactions),
    );
    let min_count = run.min_count;
    let mut passes = vec![(run.passes[0].candidates, run.passes[0].frequent)];
    let mut levels = vec![run.frequent.level(1).to_vec()];
    let mut totals: Vec<BackendTotals> = backends.iter().map(|_| Default::default()).collect();
    let (mut gen_k2_s, mut gen_deep_s) = (0.0, 0.0);
    let (mut candidates_k2, mut candidates_deep) = (0u64, 0u64);

    let mut k = 2;
    while !levels[k - 2].is_empty() && max_k.is_none_or(|m| k <= m) {
        let prev: Vec<ItemSet> = levels[k - 2].iter().map(|(s, _)| s.clone()).collect();
        let at_k = Labels {
            k: Some(k),
            ..Labels::default()
        };
        let (candidates, gen_s) =
            t.span("apriori.gen", at_k, job.is_some(), |_| apriori_gen(&prev));
        if candidates.is_empty() {
            break;
        }
        if k == 2 {
            gen_k2_s += gen_s;
            candidates_k2 += candidates.len() as u64;
        } else {
            gen_deep_s += gen_s;
            candidates_deep += candidates.len() as u64;
        }
        let mut level: Option<Vec<(ItemSet, u64)>> = None;
        for (backend, total) in backends.iter().zip(&mut totals) {
            let labels = Labels {
                backend: Some(backend.name()),
                ..at_k
            };
            let on_path = job == Some(*backend);
            let name = |call: &str| format!("counter.{}.{call}", backend.name());
            let owned = candidates.clone();
            let (mut counter, build_s) = t.span(&name("build"), labels, on_path, |_| {
                backend.build(k, HashTreeParams::default(), owned)
            });
            let ((), count_s) = t.span(&name("count"), labels, on_path, |_| {
                counter.count_all(transactions, &OwnershipFilter::all())
            });
            let ((found, vector), extract_s) = t.span(&name("extract"), labels, on_path, |_| {
                (counter.frequent(min_count), counter.count_vector())
            });
            total.build_s += build_s;
            if k == 2 {
                total.count_k2_s += count_s;
            } else {
                total.count_deep_s += count_s;
            }
            total.extract_s += extract_s;
            total.counted_passes += 1;
            total.ledger = total.ledger.merged(&counter.stats());
            total.hits += vector.iter().sum::<u64>();
            match &level {
                None => level = Some(found),
                Some(first) if *first != found => {
                    return Err(format!(
                        "counter backends disagree at k={k}: {} finds {} frequent, {} finds {}",
                        backends[0].name(),
                        first.len(),
                        backend.name(),
                        found.len()
                    ))
                }
                Some(_) => {}
            }
        }
        let level = level.ok_or("no counter backend given")?;
        passes.push((candidates.len(), level.len()));
        levels.push(level);
        k += 1;
    }

    m.real("apriori.pass1_s", pass1_s);
    m.count("apriori.passes", passes.len() as u64);
    if passes.len() > 1 {
        m.real("apriori.gen_k2_s", gen_k2_s);
        m.real("apriori.gen_deep_s", gen_deep_s);
        m.count("apriori.candidates_k2", candidates_k2);
        m.count("apriori.candidates_deep", candidates_deep);
        for (backend, total) in backends.iter().zip(&totals) {
            let name = |field: &str| format!("counter.{}.{field}", backend.name());
            let count_s = total.count_k2_s + total.count_deep_s;
            m.real(&name("build_s"), total.build_s);
            m.real(&name("count_k2_s"), total.count_k2_s);
            m.real(&name("count_deep_s"), total.count_deep_s);
            m.real(&name("extract_s"), total.extract_s);
            m.real(
                &name("count_tx_per_s"),
                (transactions.len() * total.counted_passes) as f64 / count_s,
            );
            for (field, value) in total.ledger.named_fields() {
                if LEDGER_FIELDS.contains(&field) {
                    m.count(&name(field), value);
                }
            }
            m.count(&name("hits"), total.hits);
            // The vertical counter checks a candidate once per batch, not
            // once per visiting transaction: hits / checks is its mean
            // support there, not a share of useful work.
            if *backend != CounterBackend::Vertical {
                m.real(
                    &name("hit_ratio"),
                    total.hits as f64 / total.ledger.candidate_checks as f64,
                );
            }
        }
        if totals.iter().any(|total| total.hits != totals[0].hits) {
            return Err("counter backends disagree on the summed count vector".into());
        }
    }
    let reference = Reference {
        transactions: transactions.len(),
        min_count,
        itemsets: levels.iter().map(Vec::len).sum(),
        passes,
        ..Reference::default()
    };
    Ok((reference, levels))
}

fn rules(
    t: &mut Tracer,
    m: &mut Metrics,
    flags: &Flags,
    reference: &mut Reference,
    levels: Levels,
    on_path: bool,
) -> Result<(), String> {
    if let Some(confidence) = flags.optional::<f64>("rules")? {
        let frequent = FrequentItemsets::from_levels(levels, reference.transactions as u64);
        let (count, secs) = t.span("rules.generate", Labels::default(), on_path, |_| {
            generate_rules(&frequent, confidence).len()
        });
        m.real("rules.generate_s", secs);
        m.count("rules.count", count as u64);
        reference.rules = Some(count);
    }
    Ok(())
}

/// `armine mine`: load, every pass with all three counters, rules.
pub fn serial(t: &mut Tracer, m: &mut Metrics, flags: &Flags) -> Result<Reference, String> {
    let dataset = load(t, m, flags, true)?;
    let job = job_counter(flags)?;
    let (mut reference, levels) = mine_levelwise(
        t,
        m,
        dataset.transactions(),
        flags,
        &CounterBackend::ALL,
        Some(job),
    )?;
    rules(t, m, flags, &mut reference, levels, true)?;
    Ok(reference)
}

/// The cheap reference alone: trie and vertical, which must agree.
pub fn reference(t: &mut Tracer, m: &mut Metrics, flags: &Flags) -> Result<Reference, String> {
    let dataset = load(t, m, flags, false)?;
    let (mut reference, levels) = mine_levelwise(
        t,
        m,
        dataset.transactions(),
        flags,
        &REFERENCE_BACKENDS,
        None,
    )?;
    rules(t, m, flags, &mut reference, levels, false)?;
    Ok(reference)
}

fn algorithm(flags: &Flags) -> Result<Algorithm, String> {
    Ok(match flags.get("algorithm").ok_or("missing --algorithm")? {
        "cd" => Algorithm::Cd,
        "idd" => Algorithm::Idd,
        "hd" => Algorithm::Hd {
            group_threshold: flags.optional("group-threshold")?.unwrap_or(1000),
        },
        other => return Err(format!("the probe does not know algorithm {other:?}")),
    })
}

fn parallel_params(flags: &Flags) -> Result<ParallelParams, String> {
    let mut params = ParallelParams::with_min_support(flags.required("min-support")?)
        .counter(job_counter(flags)?)
        .page_size(flags.optional("page-size")?.unwrap_or(1000));
    params.max_k = flags.optional("max-k")?;
    Ok(params)
}

fn traffic(run: &ParallelRun) -> (u64, u64) {
    (
        run.ranks.iter().map(|r| r.messages_sent).sum(),
        run.ranks.iter().map(|r| r.bytes_sent).sum(),
    )
}

/// `armine parallel --backend native --procs 2`: the single-threaded
/// baseline, P = 1, P = 2 and the partition copy, then the serial
/// decomposition with the trie and the vertical counter.
pub fn native(t: &mut Tracer, m: &mut Metrics, flags: &Flags) -> Result<Reference, String> {
    let dataset = load(t, m, flags, true)?;
    let algorithm = algorithm(flags)?;
    let params = parallel_params(flags)?;
    let procs: usize = flags.required("procs")?;
    let backend = job_counter(flags)?;

    let mine = |t: &mut Tracer, p: usize| {
        t.span(
            "parallel.mine",
            Labels {
                procs: Some(p),
                backend: Some(backend.name()),
                ..Labels::default()
            },
            p == procs,
            |_| {
                ParallelMiner::new(p)
                    .backend(ExecBackend::Native)
                    .mine(algorithm, &dataset, &params)
            },
        )
    };
    // The job's own configuration first, on the heap a fresh process has:
    // the same call reads up to 2x slower after other runs have used it.
    let (run, p_s) = mine(t, procs);
    let (_, p1_s) = mine(t, 1);
    let mut serial_params = AprioriParams::with_min_support_count(0).counter(backend);
    serial_params.min_support = params.min_support;
    serial_params.max_k = params.max_k;
    let (_, serial_s) = t.span(
        "parallel.serial",
        Labels {
            backend: Some(backend.name()),
            ..Labels::default()
        },
        false,
        |_| Apriori::new(serial_params).mine(dataset.transactions()),
    );
    let (_, partition_s) = t.span(
        "parallel.partition",
        Labels {
            procs: Some(procs),
            ..Labels::default()
        },
        false,
        |_| dataset.partition(procs),
    );

    m.real("parallel.serial_s", serial_s);
    m.real("parallel.p1_s", p1_s);
    m.real("parallel.p2_s", p_s);
    m.real("parallel.speedup_p2", p1_s / p_s);
    m.real("parallel.p1_over_serial", p1_s / serial_s);
    m.real("parallel.partition_s", partition_s);
    m.real("parallel.spawn_join_s", p_s - run.response_time);
    let counting = run.wall.iter().map(|w| w.counting);
    let exchange = run.wall.iter().map(|w| w.exchange);
    m.real(
        "parallel.rank_counting_s_max",
        counting.clone().fold(0.0, f64::max),
    );
    m.real("parallel.rank_counting_s_sum", counting.sum());
    m.real(
        "parallel.rank_exchange_s_max",
        exchange.clone().fold(0.0, f64::max),
    );
    m.real("parallel.rank_exchange_s_sum", exchange.sum());
    m.real("parallel.pass2_s", run.pass_time(2));
    let (messages, bytes) = traffic(&run);
    m.count("parallel.messages_sent", messages);
    m.count("parallel.bytes_sent", bytes);

    let (reference, _) = mine_levelwise(
        t,
        m,
        dataset.transactions(),
        flags,
        &REFERENCE_BACKENDS,
        None,
    )?;
    check_parallel(&run, &reference)?;
    Ok(reference)
}

fn check_parallel(run: &ParallelRun, reference: &Reference) -> Result<(), String> {
    if run.frequent.len() != reference.itemsets || run.min_count != reference.min_count {
        return Err(format!(
            "{} finds {} frequent itemsets at min count {}, the serial reference {} at {}",
            run.algorithm,
            run.frequent.len(),
            run.min_count,
            reference.itemsets,
            reference.min_count
        ));
    }
    Ok(())
}

/// `armine parallel` on the simulator: the simulator's own host cost.
pub fn sim(t: &mut Tracer, m: &mut Metrics, flags: &Flags) -> Result<Reference, String> {
    let dataset = load(t, m, flags, true)?;
    let algorithm = algorithm(flags)?;
    let params = parallel_params(flags)?;
    let procs: usize = flags.required("procs")?;
    let at_p = Labels {
        procs: Some(procs),
        ..Labels::default()
    };
    let (run, host_s) = t.span("mpsim.sim_host", at_p, true, |_| {
        ParallelMiner::new(procs).mine(algorithm, &dataset, &params)
    });
    let (_, spawn_join_s) = t.span("mpsim.spawn_join", at_p, false, |_| {
        Simulator::new(procs).run(|_comm| ())
    });
    let (json, export_s) = t.span("metrics.export", Labels::default(), false, |_| {
        BenchDocument::new("benchmark_probe", run.metrics.clone()).to_json()
    });
    black_box(json);

    let (messages, bytes) = traffic(&run);
    m.real("mpsim.sim_host_s", host_s);
    m.real(
        "mpsim.host_us_per_rank_pass",
        host_s * 1e6 / (procs * run.passes.len()) as f64,
    );
    m.real("mpsim.host_us_per_message", host_s * 1e6 / messages as f64);
    m.real("mpsim.spawn_join_s", spawn_join_s);
    m.count("mpsim.messages_sent", messages);
    m.count("mpsim.bytes_sent", bytes);
    m.real("mpsim.virtual_response_us", run.response_time * 1e6);
    m.count("metrics.series", run.metrics.len() as u64);
    m.real("metrics.export_s", export_s);

    let (mut reference, _) = mine_levelwise(
        t,
        m,
        dataset.transactions(),
        flags,
        &REFERENCE_BACKENDS,
        None,
    )?;
    check_parallel(&run, &reference)?;
    reference.virtual_ms = Some(format!("{:.3}", run.response_time * 1e3));
    Ok(reference)
}

/// `armine gen` then `armine mine --max-k 1`: generator, both file formats
/// written and read back, pass 1. The text file is written to `--scratch`
/// and must have the size of the job's own `--input`.
pub fn io(t: &mut Tracer, m: &mut Metrics, flags: &Flags) -> Result<Reference, String> {
    let scratch = flags.get("scratch").ok_or("missing --scratch")?;
    let quest = QuestParams::paper_t15_i6()
        .num_transactions(flags.required("transactions")?)
        .num_items(flags.optional("items")?.unwrap_or(1000))
        .num_patterns(flags.optional("patterns")?.unwrap_or(2000))
        .avg_transaction_len(flags.optional("avg-len")?.unwrap_or(15.0))
        .avg_pattern_len(flags.optional("pattern-len")?.unwrap_or(6.0))
        .seed(flags.required("seed")?);
    let none = Labels::default();
    let (generated, generate_s) = t.span("datagen.generate", none, true, |_| quest.generate());
    m.real("datagen.generate_s", generate_s);
    m.real("datagen.tx_per_s", generated.len() as f64 / generate_s);

    let text = format!("{scratch}/probe.txt");
    let (written, write_text_s) = t.span("io.write_text", none, true, |_| {
        write_transactions_file(&text, &generated)
    });
    written.map_err(|e| format!("{text}: {e}"))?;
    m.real("io.write_text_s", write_text_s);
    let binary = format!("{scratch}/probe.bin");
    let (written, write_binary_s) = t.span("io.write_binary", none, false, |_| {
        std::fs::File::create(&binary).and_then(|f| write_transactions_binary(f, &generated))
    });
    written.map_err(|e| format!("{binary}: {e}"))?;
    m.real("io.write_binary_s", write_binary_s);
    // One dataset alive at a time, as in the job's two processes: load
    // times measured beside a second resident copy read several times
    // slower.
    let transactions = generated.len();
    t.span("dataset.drop", none, true, |_| drop(generated));

    let (reread, load_binary_s) = t.span("io.load_binary", none, false, |_| {
        read_transactions_auto(&binary)
    });
    if reread.map_err(|e| format!("{binary}: {e}"))?.len() != transactions {
        return Err("binary round trip lost transactions".into());
    }
    m.real("io.load_binary_s", load_binary_s);

    let dataset = load(t, m, flags, true)?;
    let text_bytes = std::fs::metadata(&text).map_err(|e| e.to_string())?.len();
    if m.0.get("io.file_bytes") != Some(&Value::Count(text_bytes)) {
        return Err(format!(
            "the probe wrote {text_bytes} bytes of text, the job's file differs in size"
        ));
    }

    let job = job_counter(flags)?;
    let (reference, _) = mine_levelwise(
        t,
        m,
        dataset.transactions(),
        flags,
        &REFERENCE_BACKENDS,
        Some(job),
    )?;
    // Freeing a million transactions is part of both of the job's processes.
    t.span("dataset.drop", none, true, |_| drop(dataset));
    Ok(reference)
}
