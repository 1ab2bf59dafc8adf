//! The user-facing entry point: pick an algorithm, a machine, a processor
//! count, and mine. The ranks are placed by cut points on the dataset's own
//! allocation of transactions, which no rank copies.

use crate::common::{
    run_rank, Movement, PassResult, RankCtx, RankOutput, Reduction, RunShare, TransactionPage,
};
use crate::config::ParallelParams;
use crate::metrics::{ParallelPassMetrics, ParallelRun};
use crate::{hd, hpa, idd, pdm};
use armine_core::apriori::FrequentItemsets;
use armine_core::binpack::{partition_round_robin, CandidatePartition};
use armine_core::candidates::Candidates;
use armine_core::counter::CounterStats;
use armine_core::{Dataset, ItemSet};
use armine_mpsim::{
    ClusterProfile, Comm, ExecBackend, FaultPlan, MachineProfile, RecvFault, SimResult, Simulator,
    Topology, WallTimings,
};
use std::sync::Arc;

/// Which parallel formulation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Count Distribution: replicated candidates, reduced counts.
    Cd,
    /// Data Distribution: round-robin candidates, naive page all-to-all.
    Dd,
    /// DD with IDD's ring communication (the Figure 10 ablation).
    DdComm,
    /// Intelligent Data Distribution: bin-packed candidates, bitmap
    /// filtering, ring pipeline.
    Idd,
    /// Hybrid Distribution with the given per-group candidate threshold
    /// `m` (the paper used m = 50K on 64 processors).
    Hd {
        /// Maximum candidates per processor group before G grows.
        group_threshold: usize,
    },
    /// Hash Partitioned Apriori (Shintani & Kitsuregawa, discussed in
    /// Section III-E): candidates are hash-partitioned; each transaction's
    /// potential k-subsets are hashed and shipped to the owning processor.
    /// `eld_permille > 0` enables the ELD refinement: that fraction of the
    /// hottest candidates (by anti-monotone support bound) is duplicated
    /// on every processor and counted locally, CD-style.
    Hpa {
        /// Per-mille of candidates to duplicate everywhere (0 = plain HPA).
        eld_permille: u32,
    },
    /// IDD in single-source mode (the paper's conclusion): rank 0 holds
    /// the entire database (a database server / single file system) and
    /// streams pages down the processor chain; every rank counts its
    /// candidate partition as the data flows past.
    IddSingleSource,
    /// NPA (Shintani & Kitsuregawa, "very similar to CD"): replicated
    /// candidates, but counts funnel to a coordinator that derives F_k
    /// and broadcasts it — an O(P·M) bottleneck where CD's all-reduce is
    /// O(M).
    Npa,
    /// PDM (Park, Chen & Yu): CD plus DHP's hash-filter candidate pruning
    /// — local bucket tables summed by a global reduction, pass-2 (and
    /// optionally later) candidates pruned identically everywhere before
    /// the replicated tree is built.
    Pdm {
        /// Buckets in each pass's hash filter.
        buckets: usize,
        /// Passes `2..=1+filter_passes` build and apply a filter.
        filter_passes: usize,
    },
}

impl Algorithm {
    /// Short name for reports ("CD", "DD", "DD+comm", "IDD", "HD").
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Cd => "CD",
            Algorithm::Dd => "DD",
            Algorithm::DdComm => "DD+comm",
            Algorithm::Idd => "IDD",
            Algorithm::Hd { .. } => "HD",
            Algorithm::Hpa { eld_permille: 0 } => "HPA",
            Algorithm::Hpa { .. } => "HPA-ELD",
            Algorithm::IddSingleSource => "IDD-1src",
            Algorithm::Npa => "NPA",
            Algorithm::Pdm { .. } => "PDM",
        }
    }
}

/// Why a fault-injected mining run could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultRunError {
    /// The plan crashed every rank: no survivor holds the lattice.
    AllRanksCrashed,
    /// The plan failed validation (out-of-range rates, bad crash ranks…).
    InvalidPlan(String),
}

impl std::fmt::Display for FaultRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultRunError::AllRanksCrashed => {
                write!(f, "every rank crashed before the mining completed")
            }
            FaultRunError::InvalidPlan(why) => write!(f, "invalid fault plan: {why}"),
        }
    }
}

impl std::error::Error for FaultRunError {}

/// A configured parallel mining engine: the machine it runs on —
/// processor count, cluster profile, interconnect and backend.
#[derive(Debug, Clone)]
pub struct ParallelMiner {
    sim: Simulator,
}

impl ParallelMiner {
    /// A miner simulating `procs` processors of a Cray T3E (the paper's
    /// main testbed).
    pub fn new(procs: usize) -> Self {
        ParallelMiner {
            sim: Simulator::new(procs),
        }
    }

    /// Selects the execution backend: virtual-time simulation (the
    /// default) or native wall-clock execution, where the same pass
    /// drivers run at full hardware speed and [`ParallelRun::ranks`]
    /// carries per-rank measured timings. Fault plans run on both
    /// backends: injected on the virtual clock under sim, for real
    /// (thread deaths, sleeps, retransmit timers) under native.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.sim = self.sim.backend(backend);
        self
    }

    /// Overrides the machine profile (e.g. [`MachineProfile::ibm_sp2`] for
    /// the Figure 12 experiment); every rank runs it at the same speed.
    pub fn machine(mut self, machine: MachineProfile) -> Self {
        self.sim = self.sim.cluster(ClusterProfile::uniform(machine));
        self
    }

    /// Runs on a heterogeneous cluster: a base machine plus per-rank
    /// relative speed factors (see [`ClusterProfile`]). The mined
    /// itemsets never depend on the cluster — only the virtual (or, on
    /// the native backend, real) time does.
    ///
    /// # Panics
    /// If the profile's parameters are out of range for the miner's
    /// processor count.
    pub fn cluster(mut self, cluster: ClusterProfile) -> Self {
        self.sim = self.sim.cluster(cluster);
        self
    }

    /// Overrides the interconnect topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.sim = self.sim.topology(topology);
        self
    }

    /// Mines `dataset` with `algorithm`. Transactions are distributed
    /// evenly across processors (the standing assumption of Section III);
    /// the returned run carries the frequent itemsets (exact — identical
    /// to serial Apriori) and the virtual-time measurements.
    pub fn mine(
        &self,
        algorithm: Algorithm,
        dataset: &Dataset,
        params: &ParallelParams,
    ) -> ParallelRun {
        self.mine_with_faults(algorithm, dataset, params, None)
            .expect("fault-free mining cannot fail")
    }

    /// Mines `dataset` with `algorithm` on an unreliable machine: `plan`
    /// injects deterministic message loss, stragglers, and rank crashes
    /// (see [`FaultPlan`]). Transient faults cost virtual time but never
    /// correctness; crashes trigger pass-boundary recovery — survivors
    /// agree on the shrunken membership, adopt the dead rank's share of
    /// the database, and re-execute only the interrupted pass, so the
    /// mined itemsets are bit-identical to a fault-free run. All nine
    /// formulations recover (structurally special roles — NPA's
    /// coordinator, HPA's hash owners, IDD-1src's data source — are
    /// re-assigned or worked around after adoption). Fails when the plan
    /// is invalid or kills every rank.
    pub fn mine_with_faults(
        &self,
        algorithm: Algorithm,
        dataset: &Dataset,
        params: &ParallelParams,
        plan: Option<&FaultPlan>,
    ) -> Result<ParallelRun, FaultRunError> {
        let procs = self.sim.procs();
        if let Some(plan) = plan {
            plan.validate_for_procs(procs)
                .map_err(FaultRunError::InvalidPlan)?;
        }
        // The database is one slab, the dataset's own allocation: every
        // rank's slice, page and recovery holding is a range of it.
        let db = TransactionPage::from(Arc::clone(dataset.shared_transactions()));
        let cuts = cut_points(algorithm, dataset, procs);
        let num_items = dataset.num_items();
        let min_count = params.min_support.resolve(dataset.len());
        let share = RunShare::default();
        let faulty = plan.map(|plan| self.sim.clone().fault_plan(plan.clone()));
        let sim = faulty.as_ref().unwrap_or(&self.sim);
        let (db, cuts) = (&db, &cuts[..]);
        let params_copy = *params;
        // The formulations that count by `Movement::Local` (CD, NPA and
        // PDM) count their own slice against every candidate, so their
        // counting load rides the data placement — adaptive placement may
        // move transactions between their ranks at pass boundaries. The
        // page movements carry every page past every rank (the load rides
        // the candidate partition instead), and single-source IDD pins the
        // database to rank 0 by definition.
        let mobile_pages = matches!(
            algorithm,
            Algorithm::Cd | Algorithm::Npa | Algorithm::Pdm { .. }
        );
        let result: SimResult<Option<RankOutput>> = sim.run_with_faults(move |comm| {
            let ctx = RankCtx::new(
                db.slice(cuts[comm.rank()]..cuts[comm.rank() + 1]),
                num_items,
                min_count,
                params_copy.page_size,
                comm.rank(),
                comm.size(),
            );
            run_rank(
                comm,
                ctx,
                db,
                cuts,
                &share,
                &params_copy,
                mobile_pages,
                |comm, ctx, candidates, prev| {
                    count_pass(algorithm, comm, ctx, candidates, prev, &params_copy)
                },
            )
        });
        let meta = crate::registry::RunMeta {
            algorithm: algorithm.name(),
            procs,
            backend: self.sim.exec_backend(),
            counter: params.counter,
            fault_plan: plan.map_or_else(|| "none".to_owned(), FaultPlan::label),
        };
        assemble(meta, dataset.len(), min_count, result).ok_or(FaultRunError::AllRanksCrashed)
    }
}

/// One counting pass of `algorithm` over `candidates`, the run's `C_k`,
/// after `prev`, the committed `F_{k−1}`. Every formulation but HPA is
/// the one pass, given a candidate plan, a grid, a movement, a reduction
/// and, for CD and PDM, the memory cap; PDM first prunes the candidates
/// it hands that pass.
fn count_pass(
    algorithm: Algorithm,
    comm: &mut Comm,
    ctx: &RankCtx,
    candidates: &Candidates,
    prev: &[(ItemSet, u64)],
    params: &ParallelParams,
) -> Result<PassResult, RecvFault> {
    use {Movement::*, Reduction::*};
    let pruned = match algorithm {
        Algorithm::Pdm {
            buckets,
            filter_passes,
        } => pdm::prune(comm, ctx, candidates, buckets, filter_passes)?,
        _ => None,
    };
    let candidates = pruned.as_ref().unwrap_or(candidates);
    let p = ctx.size();
    let round_robin = || partition_round_robin(candidates.rows(0..candidates.len()), p);
    let first_item = || idd::make_partition(candidates, ctx.num_items, &ctx.capacities, params);
    let (whole, cap) = (CandidatePartition::whole, params.memory_capacity);
    let (plan, grid, movement, reduction, cap) = match algorithm {
        Algorithm::Hpa { eld_permille } => {
            return hpa::count_pass(comm, ctx, candidates, prev, eld_permille)
        }
        Algorithm::Cd | Algorithm::Pdm { .. } => (whole(), (1, p), Local, AllReduce, cap),
        Algorithm::Npa => (whole(), (1, p), Local, Gather, None),
        Algorithm::Dd => (round_robin(), (p, 1), AllToAll, AllReduce, None),
        Algorithm::DdComm => (round_robin(), (p, 1), Ring, AllReduce, None),
        Algorithm::Idd => (first_item(), (p, 1), Ring, AllReduce, None),
        // Once the source (global rank 0) has died, its pages live on
        // several survivors: the ring circulates them.
        Algorithm::IddSingleSource if ctx.members[0] == 0 => {
            (first_item(), (p, 1), Chain, AllReduce, None)
        }
        Algorithm::IddSingleSource => (first_item(), (p, 1), Ring, AllReduce, None),
        // The ring at every grid, (1, P) included: HD counts page by page.
        Algorithm::Hd { group_threshold } => {
            let (plan, grid) = hd::plan_and_grid(ctx, candidates, params, group_threshold);
            (plan, grid, Ring, AllReduce, None)
        }
    };
    hd::partitioned_pass(
        comm, ctx, candidates, params, &plan, grid, movement, reduction, cap,
    )
}

/// Where the database slab is cut: rank `r` starts on `cuts[r]..cuts[r + 1]`,
/// the even split of Section III — except in single-source mode, where the
/// whole database sits on rank 0.
fn cut_points(algorithm: Algorithm, dataset: &Dataset, procs: usize) -> Vec<usize> {
    let mut cuts = dataset.partition_bounds(procs);
    if algorithm == Algorithm::IddSingleSource {
        cuts[1..].fill(dataset.len());
    }
    cuts
}

/// Folds the per-rank outputs into one [`ParallelRun`]. Crashed ranks
/// contribute `None` (their [`armine_mpsim::RankStats`] still count);
/// returns `None` only when nobody survived.
fn assemble(
    meta: crate::registry::RunMeta,
    total_n: usize,
    min_count: u64,
    result: SimResult<Option<RankOutput>>,
) -> Option<ParallelRun> {
    let response_time = result.response_time();
    let SimResult { results, ranks } = result;
    // `(rank, output)` of every survivor: the registry labels each
    // counting ledger with the rank that kept it.
    let mut survivors: Vec<(usize, RankOutput)> = results
        .into_iter()
        .enumerate()
        .filter_map(|(rank, output)| Some((rank, output?)))
        .collect();
    // Every surviving rank must have discovered the identical lattice.
    debug_assert!(
        survivors.windows(2).all(|w| w[0].1.levels == w[1].1.levels),
        "ranks disagree on the frequent itemsets"
    );
    let first = &survivors.first()?.1;
    let num_passes = first.passes.len();
    let mut passes = Vec::with_capacity(num_passes);
    let mut prev_end = 0.0f64;
    for i in 0..num_passes {
        let mut stats = CounterStats::default();
        let mut end = 0.0f64;
        for (_, r) in &survivors {
            stats = stats.merged(&r.passes[i].stats);
            end = end.max(r.passes[i].clock_end);
        }
        let proto = &first.passes[i];
        passes.push(ParallelPassMetrics {
            k: proto.k,
            candidates: proto.candidates_total,
            counted_candidates: proto.counted_candidates,
            frequent: first.levels[i].len(),
            grid: proto.grid,
            tree_stats: stats,
            db_scans: proto.db_scans,
            candidate_imbalance: proto.candidate_imbalance,
            time: (end - prev_end).max(0.0),
        });
        prev_end = end;
    }
    let procs = meta.procs;
    let algorithm = meta.algorithm;
    // The share died with the rank closure, so the levels move out uncopied.
    let levels = std::mem::take(&mut survivors[0].1.levels);
    survivors.iter_mut().for_each(|(_, r)| r.levels.clear());
    let levels = levels.into_iter().map(Arc::unwrap_or_clone).collect();
    let frequent = FrequentItemsets::from_levels(levels, total_n as u64);
    let metrics = crate::registry::finish_snapshot(
        &meta,
        &survivors,
        &ranks,
        &passes,
        response_time,
        frequent.len(),
    );
    Some(ParallelRun {
        algorithm,
        procs,
        frequent,
        passes,
        response_time,
        min_count,
        // Filled before `ranks` moves in.
        wall: match meta.backend {
            ExecBackend::Sim => Vec::new(),
            ExecBackend::Native => ranks
                .iter()
                .map(|r| WallTimings {
                    counting: r.busy,
                    exchange: r.idle,
                })
                .collect(),
        },
        ranks,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use armine_core::apriori::{Apriori, AprioriParams, MinSupport};
    use armine_core::counter::CounterBackend;
    use armine_core::{Item, ItemSet, Transaction};
    use armine_datagen::QuestParams;

    const ALGOS: [Algorithm; 5] = [
        Algorithm::Cd,
        Algorithm::Dd,
        Algorithm::DdComm,
        Algorithm::Idd,
        Algorithm::Hd {
            group_threshold: 40,
        },
    ];

    fn quest(n: usize, items: u32, seed: u64) -> Dataset {
        QuestParams::paper_t15_i6()
            .num_transactions(n)
            .num_items(items)
            .num_patterns(30)
            .seed(seed)
            .generate()
    }

    fn serial_reference(dataset: &Dataset, min_count: u64) -> Vec<(ItemSet, u64)> {
        let run = Apriori::new(AprioriParams::with_min_support_count(min_count).max_k(5))
            .mine(dataset.transactions());
        run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect()
    }

    /// The headline correctness property: every algorithm, at several
    /// processor counts, finds exactly the serial Apriori lattice.
    #[test]
    fn all_algorithms_match_serial_apriori() {
        let dataset = quest(300, 80, 11);
        let min_count = 9;
        let want = serial_reference(&dataset, min_count);
        assert!(!want.is_empty(), "test data must have frequent itemsets");
        let params = ParallelParams::with_min_support_count(min_count)
            .page_size(50)
            .max_k(5);
        for procs in [1, 2, 4, 7] {
            for algo in ALGOS {
                let run = ParallelMiner::new(procs).mine(algo, &dataset, &params);
                let got: Vec<(ItemSet, u64)> =
                    run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
                assert_eq!(
                    got,
                    want,
                    "{} with {procs} procs diverged from serial",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn two_level_idd_matches_serial() {
        let dataset = quest(250, 60, 5);
        let min_count = 8;
        let want = serial_reference(&dataset, min_count);
        let params = ParallelParams::with_min_support_count(min_count)
            .page_size(40)
            .max_k(5)
            .split_threshold(3); // aggressive splitting
        for algo in [
            Algorithm::Idd,
            Algorithm::Hd {
                group_threshold: 30,
            },
        ] {
            let run = ParallelMiner::new(4).mine(algo, &dataset, &params);
            let got: Vec<(ItemSet, u64)> =
                run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
            assert_eq!(got, want, "{}", algo.name());
        }
    }

    #[test]
    fn cd_memory_cap_matches_serial_with_extra_scans() {
        let dataset = quest(300, 80, 13);
        let min_count = 8;
        let want = serial_reference(&dataset, min_count);
        let capped = ParallelParams::with_min_support_count(min_count)
            .memory_capacity(10)
            .max_k(5);
        let run = ParallelMiner::new(4).mine(Algorithm::Cd, &dataset, &capped);
        let got: Vec<(ItemSet, u64)> = run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
        assert_eq!(got, want);
        assert!(
            run.passes.iter().any(|p| p.db_scans > 1),
            "capping must force multiple scans in some pass"
        );
    }

    /// A capped CD pass cuts `C_k` into runs of `cap` candidates, one
    /// database scan each: from one candidate per scan to the largest
    /// `C_k` in one, every counter mines the serial lattice with the
    /// serial per-pass counts.
    #[test]
    fn memory_cap_gives_same_answer_with_more_scans() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        let transactions: Vec<Transaction> = (0..60)
            .map(|tid| {
                let len = rng.gen_range(2..=9);
                let items: Vec<Item> = (0..len).map(|_| Item(rng.gen_range(0..15))).collect();
                Transaction::new(tid, items)
            })
            .collect();
        let dataset = Dataset::new(transactions);
        let serial =
            Apriori::new(AprioriParams::with_min_support_count(3)).mine(dataset.transactions());
        let want: Vec<(ItemSet, u64)> = serial
            .frequent
            .iter()
            .map(|(s, c)| (s.clone(), c))
            .collect();
        let largest = serial.passes[1..].iter().map(|p| p.candidates).max();
        let largest = largest.expect("the data reaches pass 2");
        assert!(
            largest > 8,
            "|C_k| {largest} leaves no room between the caps"
        );
        for backend in CounterBackend::ALL {
            for cap in [1, 7, largest - 1, largest] {
                let on = format!("{} at cap {cap}", backend.name());
                let params = ParallelParams::with_min_support_count(3)
                    .counter(backend)
                    .memory_capacity(cap);
                let run = ParallelMiner::new(4).mine(Algorithm::Cd, &dataset, &params);
                let got: Vec<(ItemSet, u64)> =
                    run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
                assert_eq!(got, want, "{on}");
                assert_eq!(run.passes.len(), serial.passes.len(), "{on}");
                for (got, want) in run.passes.iter().zip(&serial.passes) {
                    let (k, candidates) = (got.k, got.candidates);
                    assert_eq!(
                        (k, candidates, got.frequent),
                        (want.k, want.candidates, want.frequent),
                        "{on}"
                    );
                    if k > 1 {
                        let scans = candidates.div_ceil(cap);
                        assert_eq!(got.db_scans, scans, "{on}: pass {k}");
                    }
                }
            }
        }
    }

    /// The memory cap cuts CD's and PDM's passes into scans and nobody
    /// else's: at a cap of one candidate and at one inside the largest
    /// `C_k`, every other formulation's passes and response time are its
    /// uncapped run's, under the default counter and under the vertical
    /// one, whose ledger is per call.
    #[test]
    fn the_memory_cap_is_cd_and_pdms_only() {
        let dataset = quest(300, 80, 11);
        let params = ParallelParams::with_min_support_count(9)
            .page_size(50)
            .max_k(4);
        let others = [
            Algorithm::Npa,
            Algorithm::Dd,
            Algorithm::DdComm,
            Algorithm::Idd,
            Algorithm::IddSingleSource,
            Algorithm::Hd {
                group_threshold: 40,
            },
            Algorithm::Hpa { eld_permille: 200 },
        ];
        let miner = ParallelMiner::new(4);
        for backend in [CounterBackend::default(), CounterBackend::Vertical] {
            let params = params.counter(backend);
            let cd = miner.mine(Algorithm::Cd, &dataset, &params);
            let largest = cd.passes[1..].iter().map(|p| p.candidates).max();
            let largest = largest.expect("the data reaches pass 2");
            for cap in [1, largest / 2] {
                let capped = params.memory_capacity(cap);
                let cd = miner.mine(Algorithm::Cd, &dataset, &capped);
                assert!(
                    cd.passes.iter().any(|p| p.db_scans > 1),
                    "cap {cap} cuts CD"
                );
                for algo in others {
                    let on = format!("{} under {} at cap {cap}", algo.name(), backend.name());
                    let free = miner.mine(algo, &dataset, &params);
                    let run = miner.mine(algo, &dataset, &capped);
                    assert_eq!(
                        format!("{:?}", run.passes),
                        format!("{:?}", free.passes),
                        "{on}"
                    );
                    let times = [run.response_time, free.response_time].map(f64::to_bits);
                    assert_eq!(times[0], times[1], "{on}");
                }
            }
        }
    }

    /// Placement is cut points over one slab: the even split everywhere
    /// but single-source mode, where rank 0's range is the whole database
    /// and every other rank's is empty.
    #[test]
    fn single_source_is_a_choice_of_cut_points() {
        let dataset = quest(10, 20, 3);
        for algo in ALGOS {
            assert_eq!(cut_points(algo, &dataset, 4), [0, 3, 6, 8, 10]);
        }
        let cuts = cut_points(Algorithm::IddSingleSource, &dataset, 4);
        assert_eq!(cuts, [0, 10, 10, 10, 10]);
        let db = TransactionPage::from(Arc::clone(dataset.shared_transactions()));
        let slices: Vec<TransactionPage> = cuts.windows(2).map(|w| db.slice(w[0]..w[1])).collect();
        assert_eq!(&slices[0][..], dataset.transactions());
        assert!(slices[1..].iter().all(|s| s.is_empty()));
    }

    #[test]
    fn fractional_support_resolves_against_whole_database() {
        let dataset = quest(200, 60, 3);
        let params = ParallelParams {
            min_support: MinSupport::Fraction(0.05),
            ..ParallelParams::with_min_support_count(0)
        };
        let run = ParallelMiner::new(4).mine(Algorithm::Cd, &dataset, &params);
        assert_eq!(run.min_count, 10, "5% of 200");
    }

    #[test]
    fn response_times_ordering_dd_worst() {
        // The paper's headline mechanisms, in a candidate-heavy regime
        // (many items, moderate support) where DD's redundant traversal
        // dominates: DD ≥ DD+comm (the ring never loses to the naive
        // all-to-all) and both stay far above IDD (intelligent
        // partitioning removes the redundant work); HD tracks the best.
        let dataset = quest(1200, 200, 17);
        let params = ParallelParams::with_min_support_count(10)
            .page_size(50)
            .max_k(5);
        let miner = ParallelMiner::new(8);
        let time = |a| miner.mine(a, &dataset, &params).response_time;
        let (dd, ddc, idd, cd, hd) = (
            time(Algorithm::Dd),
            time(Algorithm::DdComm),
            time(Algorithm::Idd),
            time(Algorithm::Cd),
            time(Algorithm::Hd {
                group_threshold: 500,
            }),
        );
        assert!(
            dd >= ddc,
            "ring never loses to naive all-to-all: DD {dd} vs DD+comm {ddc}"
        );
        assert!(
            ddc > 1.4 * idd,
            "redundant work dominates: DD+comm {ddc} vs IDD {idd}"
        );
        assert!(
            dd > 1.4 * idd,
            "DD pays for redundant work: {dd} vs IDD {idd}"
        );
        assert!(
            hd < cd,
            "with M large vs N, HD must beat CD: HD {hd} vs CD {cd}"
        );
    }

    #[test]
    fn idd_reduces_leaf_visits_versus_dd() {
        // Figure 11's mechanism, observed in the real counters.
        let dataset = quest(600, 100, 23);
        let params = ParallelParams::with_min_support_count(10)
            .page_size(50)
            .max_k(3);
        let miner = ParallelMiner::new(8);
        let dd = miner.mine(Algorithm::Dd, &dataset, &params);
        let idd = miner.mine(Algorithm::Idd, &dataset, &params);
        let dd_visits = dd.passes[2].avg_leaf_visits_per_transaction();
        let idd_visits = idd.passes[2].avg_leaf_visits_per_transaction();
        assert!(
            idd_visits < dd_visits / 2.0,
            "IDD per-transaction leaf visits {idd_visits} should be well below DD's {dd_visits}"
        );
    }

    #[test]
    fn hd_grid_changes_with_candidate_count() {
        let dataset = quest(400, 100, 29);
        // Tiny threshold → many groups in candidate-heavy passes.
        let params = ParallelParams::with_min_support_count(8).page_size(50);
        let run = ParallelMiner::new(8).mine(
            Algorithm::Hd {
                group_threshold: 10,
            },
            &dataset,
            &params,
        );
        let grids: Vec<(usize, usize)> = run.passes.iter().map(|p| p.grid).collect();
        assert!(
            grids.iter().any(|&(g, _)| g > 1),
            "some pass should use G > 1: {grids:?}"
        );
        for (g, cols) in grids {
            assert_eq!(g * cols, 8);
        }
    }

    #[test]
    fn pass_metrics_are_consistent() {
        let dataset = quest(300, 80, 31);
        let params = ParallelParams::with_min_support_count(9);
        let run = ParallelMiner::new(4).mine(Algorithm::Idd, &dataset, &params);
        assert!(!run.passes.is_empty());
        let mut total_time = 0.0;
        for (i, p) in run.passes.iter().enumerate() {
            assert_eq!(p.k, i + 1);
            assert!(p.frequent <= p.candidates.max(p.frequent));
            assert!(p.time >= 0.0);
            total_time += p.time;
        }
        assert!(
            (total_time - run.response_time).abs() < 1e-6 * run.response_time.max(1e-12),
            "pass times must sum to the response time"
        );
        assert_eq!(run.ranks.len(), 4);
        assert!(run.total_bytes() > 0);
    }

    #[test]
    fn deterministic_runs() {
        let dataset = quest(200, 60, 37);
        let params = ParallelParams::with_min_support_count(8);
        let m = ParallelMiner::new(4);
        let a = m.mine(
            Algorithm::Hd {
                group_threshold: 20,
            },
            &dataset,
            &params,
        );
        let b = m.mine(
            Algorithm::Hd {
                group_threshold: 20,
            },
            &dataset,
            &params,
        );
        assert_eq!(a.response_time, b.response_time);
        assert_eq!(a.total_bytes(), b.total_bytes());
    }

    #[test]
    fn single_processor_degenerates_to_serial_costs() {
        let dataset = quest(150, 50, 41);
        let params = ParallelParams::with_min_support_count(6);
        for algo in ALGOS {
            let run = ParallelMiner::new(1).mine(algo, &dataset, &params);
            assert!(!run.frequent.is_empty(), "{}", algo.name());
            assert_eq!(run.procs, 1);
        }
    }

    #[test]
    fn empty_and_tiny_datasets() {
        let empty = Dataset::with_num_items(vec![], 10);
        let params = ParallelParams::with_min_support_count(1);
        let run = ParallelMiner::new(4).mine(Algorithm::Cd, &empty, &params);
        assert!(run.frequent.is_empty());

        let tiny = Dataset::new(vec![Transaction::new(1, vec![Item(0), Item(1), Item(2)])]);
        for algo in ALGOS {
            let run = ParallelMiner::new(4).mine(algo, &tiny, &params);
            assert_eq!(run.frequent.len(), 7, "{}", algo.name());
        }
    }

    #[test]
    fn crash_recovery_reproduces_fault_free_itemsets() {
        use armine_mpsim::{CrashPoint, FaultPlan};
        let dataset = quest(240, 70, 59);
        let params = ParallelParams::with_min_support_count(8)
            .page_size(40)
            .max_k(4);
        let miner = ParallelMiner::new(4);
        let plan = FaultPlan::new()
            .seed(7)
            .drop_rate(0.02)
            .slowdown(1, 2.0)
            .crash(2, CrashPoint::AtPass(3));
        for algo in ALGOS {
            let clean = miner.mine(algo, &dataset, &params);
            let faulted = miner
                .mine_with_faults(algo, &dataset, &params, Some(&plan))
                .unwrap_or_else(|e| panic!("{} under faults: {e}", algo.name()));
            let clean_sets: Vec<(ItemSet, u64)> =
                clean.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
            let faulted_sets: Vec<(ItemSet, u64)> = faulted
                .frequent
                .iter()
                .map(|(s, c)| (s.clone(), c))
                .collect();
            assert_eq!(faulted_sets, clean_sets, "{} diverged", algo.name());
            assert!(
                faulted.total_recoveries() > 0,
                "{} must commit a recovery",
                algo.name()
            );
            assert!(faulted.total_timeouts() > 0, "{}", algo.name());
        }
    }

    /// The formulations with structurally special ranks — NPA's
    /// coordinator, HPA's hash owners, IDD-1src's data source — recover
    /// too, including from the death of the special rank itself.
    #[test]
    fn special_role_algorithms_recover_from_crashes() {
        use armine_mpsim::{CrashPoint, FaultPlan};
        let dataset = quest(240, 70, 59);
        let params = ParallelParams::with_min_support_count(8)
            .page_size(40)
            .max_k(4);
        let miner = ParallelMiner::new(4);
        for algo in [
            Algorithm::Npa,
            Algorithm::Hpa { eld_permille: 200 },
            Algorithm::IddSingleSource,
        ] {
            let clean = miner.mine(algo, &dataset, &params);
            let want: Vec<(ItemSet, u64)> =
                clean.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
            // Rank 0 is the coordinator (NPA), the hot-set contributor
            // (HPA-ELD), and the data source (IDD-1src) — kill it, and a
            // bystander too.
            for victim in [0usize, 2] {
                let plan = FaultPlan::new()
                    .seed(7)
                    .crash(victim, CrashPoint::AtPass(3));
                let faulted = miner
                    .mine_with_faults(algo, &dataset, &params, Some(&plan))
                    .unwrap_or_else(|e| panic!("{} crash({victim}): {e}", algo.name()));
                let got: Vec<(ItemSet, u64)> = faulted
                    .frequent
                    .iter()
                    .map(|(s, c)| (s.clone(), c))
                    .collect();
                assert_eq!(got, want, "{} crash({victim}) diverged", algo.name());
                assert!(
                    faulted.total_recoveries() > 0,
                    "{} crash({victim}) must commit a recovery",
                    algo.name()
                );
            }
        }
        // Transient faults remain transparent.
        let transient = FaultPlan::new().seed(3).drop_rate(0.05);
        for algo in [Algorithm::Npa, Algorithm::Hpa { eld_permille: 0 }] {
            let run = miner
                .mine_with_faults(algo, &dataset, &params, Some(&transient))
                .expect("transient faults are recoverable everywhere");
            assert!(run.total_retransmits() > 0);
        }
    }

    /// A run holds one copy of everything its ranks only read. Each rank
    /// starts on a range of the dataset's own allocation (no transaction
    /// cloned), each pass's `C_k` is one arena and each `F_k` one level,
    /// the same allocation on every surviving rank, pass for pass, and the
    /// allocation is the dataset's alone again once the run returns. HD on
    /// eight simulated ranks, also after rank 0 (often the one that
    /// generated pass 2) dies entering pass 2, and CD on two native
    /// threads, wired as `mine_with_faults` wires them.
    #[test]
    fn ranks_hold_one_copy_of_each_pass() {
        use armine_mpsim::{CrashPoint, FaultPlan};
        let dataset = quest(300, 80, 11);
        let params = ParallelParams::with_min_support_count(9)
            .page_size(50)
            .max_k(5);
        // Where a run of transactions lies in memory, as addresses.
        let at = |txs: &[Transaction]| {
            let range = txs.as_ptr_range();
            range.start as usize..range.end as usize
        };
        let whole = at(dataset.transactions());
        let rank0_dies = FaultPlan::new().seed(3).crash(0, CrashPoint::AtPass(2));
        let cases = [
            (Simulator::new(8), 8),
            (Simulator::new(8).fault_plan(rank0_dies), 7),
            (Simulator::new(2).backend(ExecBackend::Native), 2),
        ];
        for (sim, survivors) in cases {
            let procs = sim.procs();
            let db = TransactionPage::from(Arc::clone(dataset.shared_transactions()));
            let cuts = dataset.partition_bounds(procs);
            let share = RunShare::default();
            let result = sim.run_with_faults(|comm| {
                let me = comm.rank();
                let local = db.slice(cuts[me]..cuts[me + 1]);
                let start = at(&local);
                let ctx = RankCtx::new(local, dataset.num_items(), 9, 50, me, procs);
                // Where each pass's candidates lie, as this rank counts them.
                let mut c_k = std::collections::BTreeMap::new();
                let count_pass = |comm: &mut armine_mpsim::Comm,
                                  ctx: &RankCtx,
                                  c: &armine_core::candidates::Candidates,
                                  _: &[_]| {
                    c_k.insert(c.k(), std::ptr::from_ref(c) as usize);
                    let (plan, grid, movement) = match procs {
                        2 => (CandidatePartition::whole(), (1, 2), Movement::Local),
                        _ => {
                            let (plan, grid) = hd::plan_and_grid(ctx, c, &params, 40);
                            (plan, grid, Movement::Ring)
                        }
                    };
                    let reduction = Reduction::AllReduce;
                    hd::partitioned_pass(
                        comm, ctx, c, &params, &plan, grid, movement, reduction, None,
                    )
                };
                let output = run_rank(comm, ctx, &db, &cuts, &share, &params, false, count_pass);
                (output, c_k, start)
            });
            drop((db, share));
            let outputs: Vec<_> = result.results.into_iter().flatten().collect();
            assert_eq!(outputs.len(), survivors, "P = {procs}");
            for (_, _, start) in &outputs {
                let inside = whole.start <= start.start && start.end <= whole.end;
                assert!(inside, "P = {procs}: a rank started on a copy");
            }
            let (first, first_c_k, _) = &outputs[0];
            assert!(first.levels.len() >= 3, "P = {procs}: too few passes");
            assert_eq!(first_c_k.len(), first.levels.len() - 1, "P = {procs}");
            for (other, c_k, _) in &outputs[1..] {
                assert_eq!(c_k, first_c_k, "P = {procs}: C_k not shared");
                assert_eq!(other.levels.len(), first.levels.len(), "P = {procs}");
                for (a, b) in first.levels.iter().zip(&other.levels) {
                    assert!(Arc::ptr_eq(a, b), "P = {procs}: F_k not shared");
                }
            }
            let held = Arc::strong_count(dataset.shared_transactions());
            assert_eq!(held, 1, "P = {procs}: a view outlived the run");
        }
        let miner = ParallelMiner::new(2).backend(ExecBackend::Native);
        let run = miner.mine(Algorithm::Cd, &dataset, &params);
        assert!(!run.frequent.is_empty());
        let held = Arc::strong_count(dataset.shared_transactions());
        assert_eq!(held, 1, "mine returned holding the dataset");
    }

    #[test]
    fn all_ranks_crashing_errors_cleanly() {
        use armine_mpsim::{CrashPoint, FaultPlan};
        let dataset = quest(120, 40, 61);
        let params = ParallelParams::with_min_support_count(6).max_k(3);
        let mut plan = FaultPlan::new();
        for rank in 0..3 {
            plan = plan.crash(rank, CrashPoint::AtPass(2));
        }
        assert_eq!(
            ParallelMiner::new(3)
                .mine_with_faults(Algorithm::Cd, &dataset, &params, Some(&plan))
                .unwrap_err(),
            FaultRunError::AllRanksCrashed
        );
    }

    #[test]
    fn out_of_range_crash_rank_is_an_invalid_plan() {
        use armine_mpsim::{CrashPoint, FaultPlan};
        let dataset = quest(120, 40, 61);
        let params = ParallelParams::with_min_support_count(6).max_k(3);
        let plan = FaultPlan::new().crash(9, CrashPoint::AtTime(0.001));
        assert!(matches!(
            ParallelMiner::new(4).mine_with_faults(Algorithm::Cd, &dataset, &params, Some(&plan)),
            Err(FaultRunError::InvalidPlan(_))
        ));
    }

    #[test]
    fn heterogeneous_cluster_preserves_itemsets_for_every_formulation() {
        use crate::config::PlacementPolicy;
        let dataset = quest(240, 70, 67);
        let params = ParallelParams::with_min_support_count(8)
            .page_size(40)
            .max_k(4);
        let cluster = ClusterProfile::uniform(MachineProfile::cray_t3e())
            .speed(0, 2.0)
            .speed(2, 0.25);
        let all_algos = [
            Algorithm::Cd,
            Algorithm::Dd,
            Algorithm::DdComm,
            Algorithm::Idd,
            Algorithm::Hd {
                group_threshold: 40,
            },
            Algorithm::Hpa { eld_permille: 200 },
            Algorithm::IddSingleSource,
            Algorithm::Npa,
            Algorithm::Pdm {
                buckets: 1 << 10,
                filter_passes: 1,
            },
        ];
        for algo in all_algos {
            let want: Vec<(ItemSet, u64)> = ParallelMiner::new(4)
                .mine(algo, &dataset, &params)
                .frequent
                .iter()
                .map(|(s, c)| (s.clone(), c))
                .collect();
            for placement in PlacementPolicy::ALL {
                let run = ParallelMiner::new(4).cluster(cluster.clone()).mine(
                    algo,
                    &dataset,
                    &params.placement(placement),
                );
                let got: Vec<(ItemSet, u64)> =
                    run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
                assert_eq!(got, want, "{} under {placement} diverged", algo.name());
            }
        }
    }

    #[test]
    fn adaptive_placement_beats_static_on_a_skewed_cluster() {
        use crate::config::PlacementPolicy;
        // One rank at quarter speed. Static placement leaves it holding a
        // full 1/P share of the counting work, gating every pass; the
        // adaptive policy re-scores shares from measured pass times and
        // shifts work to the fast ranks.
        let dataset = quest(800, 120, 73);
        let params = ParallelParams::with_min_support_count(10)
            .page_size(50)
            .max_k(4);
        let cluster = ClusterProfile::uniform(MachineProfile::cray_t3e()).speed(1, 0.25);
        for algo in [Algorithm::Cd, Algorithm::Idd] {
            let miner = ParallelMiner::new(4).cluster(cluster.clone());
            let stat = miner.mine(algo, &dataset, &params).response_time;
            let adap = miner
                .mine(algo, &dataset, &params.placement(PlacementPolicy::Adaptive))
                .response_time;
            assert!(
                adap < stat,
                "{}: adaptive {adap} must beat static {stat} with a 4x straggler",
                algo.name()
            );
        }
    }

    #[test]
    fn adaptive_placement_is_a_noop_guarded_fallback_under_crash_plans() {
        use crate::config::PlacementPolicy;
        use armine_mpsim::{CrashPoint, FaultPlan};
        // A crashing plan must force static behavior: identical response
        // time with either policy, and identical itemsets.
        let dataset = quest(240, 70, 59);
        let params = ParallelParams::with_min_support_count(8)
            .page_size(40)
            .max_k(4);
        let plan = FaultPlan::new().seed(7).crash(2, CrashPoint::AtPass(3));
        let miner = ParallelMiner::new(4);
        let stat = miner
            .mine_with_faults(Algorithm::Cd, &dataset, &params, Some(&plan))
            .unwrap();
        let adap = miner
            .mine_with_faults(
                Algorithm::Cd,
                &dataset,
                &params.placement(PlacementPolicy::Adaptive),
                Some(&plan),
            )
            .unwrap();
        assert_eq!(stat.response_time, adap.response_time);
        let a: Vec<(ItemSet, u64)> = stat.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
        let b: Vec<(ItemSet, u64)> = adap.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Cd.name(), "CD");
        assert_eq!(Algorithm::Dd.name(), "DD");
        assert_eq!(Algorithm::DdComm.name(), "DD+comm");
        assert_eq!(Algorithm::Idd.name(), "IDD");
        assert_eq!(Algorithm::Hd { group_threshold: 1 }.name(), "HD");
        assert_eq!(Algorithm::Hpa { eld_permille: 0 }.name(), "HPA");
        assert_eq!(Algorithm::Hpa { eld_permille: 100 }.name(), "HPA-ELD");
    }

    #[test]
    fn hpa_and_eld_match_serial() {
        let dataset = quest(300, 80, 43);
        let min_count = 9;
        let want = serial_reference(&dataset, min_count);
        assert!(!want.is_empty());
        let params = ParallelParams::with_min_support_count(min_count)
            .page_size(50)
            .max_k(5);
        for eld_permille in [0u32, 100, 500, 1000] {
            for procs in [1, 4] {
                let run = ParallelMiner::new(procs).mine(
                    Algorithm::Hpa { eld_permille },
                    &dataset,
                    &params,
                );
                let got: Vec<(ItemSet, u64)> =
                    run.frequent.iter().map(|(s, c)| (s.clone(), c)).collect();
                assert_eq!(got, want, "HPA eld={eld_permille} procs={procs}");
            }
        }
    }

    #[test]
    fn hpa_ships_more_than_idd_beyond_pass_two() {
        // Section III-E: "for values of k greater than 2, HPA can have
        // much larger communication volume than that for DD and IDD"
        // because it moves (I choose k) potential candidates per
        // transaction instead of the transaction itself.
        let dataset = quest(400, 120, 47);
        let miner = ParallelMiner::new(8);
        let p2 = ParallelParams::with_min_support_count(8)
            .page_size(50)
            .max_k(4);
        let hpa = miner.mine(Algorithm::Hpa { eld_permille: 0 }, &dataset, &p2);
        let idd = miner.mine(Algorithm::Idd, &dataset, &p2);
        assert!(
            hpa.total_bytes() > 2 * idd.total_bytes(),
            "HPA bytes {} should far exceed IDD bytes {} with passes up to k=4",
            hpa.total_bytes(),
            idd.total_bytes()
        );
    }

    #[test]
    fn eld_reduces_hpa_communication() {
        // Duplicating the hottest candidates keeps their (numerous)
        // potential-candidate instances local.
        let dataset = quest(400, 120, 53);
        let miner = ParallelMiner::new(8);
        let params = ParallelParams::with_min_support_count(8)
            .page_size(50)
            .max_k(3);
        let plain = miner.mine(Algorithm::Hpa { eld_permille: 0 }, &dataset, &params);
        let eld = miner.mine(Algorithm::Hpa { eld_permille: 300 }, &dataset, &params);
        assert!(
            eld.total_bytes() < plain.total_bytes(),
            "ELD {} should ship fewer bytes than plain HPA {}",
            eld.total_bytes(),
            plain.total_bytes()
        );
    }
}
