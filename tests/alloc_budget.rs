//! Allocation and live-byte budgets, counted exactly by this binary's
//! global allocator instead of read off a noisy resident-set size.
//!
//! Two things are held:
//!
//! - **Kernels do not allocate per transaction.** With a counter built,
//!   counting `N` transactions and counting `2N` take the same number of
//!   allocations, for every backend at `k = 2, 3, 4`, in one call and in
//!   100-transaction pages: the vertical backend pivots each batch into
//!   buffers it keeps.
//! - **Pass 2 holds only its counts.** `C₂ = F₁ × F₁` is never written
//!   down, so pass 2's peak live bytes above the input stay within one
//!   count per candidate plus what `F₁` and a reduction cost, and for the
//!   hash tree its shape.
//! - **The rule step holds its index and its top rules.** `top_rules`
//!   builds only the rules it returns, so its allocations and peak live
//!   bytes do not grow with the number of rules.
//!
//! A budget starts at the value measured when it was set. Lowering one is
//! a one-line change; raising one is argued in CHANGES.md. The tests share
//! the allocator's counters, so each holds [`serial`] for its whole body.

use armine::core::apriori::{Apriori, AprioriParams};
use armine::core::candidates::Candidates;
use armine::core::counter::CounterBackend;
use armine::core::hashtree::{HashTreeParams, OwnershipFilter};
use armine::core::rules::top_rules;
use armine::core::{Dataset, ItemSet, Transaction};
use armine::datagen::QuestParams;
use armine::mpsim::ExecBackend;
use armine::parallel::{Algorithm, ParallelMiner, ParallelParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts live bytes and their peak over every thread, and allocations
/// per thread.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

impl Counting {
    fn grew(&self, bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
        // A thread being torn down has no counter left to bump.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// bookkeeping on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            self.grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tests read one set of counters: they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// What `f` returns, and the peak of live bytes above those live when it
/// started, over every thread.
fn peak_above<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// A seeded sparse Quest input: T15.I6 over 1,000 items.
fn sparse(n: usize) -> Dataset {
    QuestParams::paper_t15_i6()
        .num_transactions(n)
        .num_items(1000)
        .num_patterns(200)
        .seed(4242)
        .generate()
}

/// Counting `N` and `2N` transactions with a built counter allocate alike,
/// for every backend at `k = 2` (the pair table for the trie and the
/// vertical backend), `k = 3` and `k = 4`, where the walks have the most
/// levels and the vertical prefix stack is deepest, whole and in
/// 100-transaction pages, on counters built from rows and from a share of
/// `C_k` alike.
#[test]
fn kernels_allocate_nothing_per_transaction() {
    let _serial = serial();
    let dataset = sparse(2_000);
    let db = dataset.transactions();
    let n = db.len() / 2;
    let run = Apriori::new(AprioriParams::with_min_support_count(20).max_k(3)).mine(db);
    for k in [2, 3, 4] {
        let prev = run.frequent.level(k - 1);
        let candidates = Candidates::generate(k, prev, |(set, _): &(ItemSet, u64)| set.items());
        assert!(candidates.len() > 1_000, "k={k}: too few candidates");
        let rows: Vec<ItemSet> = candidates
            .rows(0..candidates.len())
            .map(|row| ItemSet::from_sorted(row.as_ref().to_vec()))
            .collect();
        for backend in CounterBackend::ALL {
            let tree = HashTreeParams::default();
            let builds: [(&str, &dyn Fn() -> _); 2] = [
                ("rows", &|| backend.build(k, tree, &rows)),
                ("share", &|| {
                    let all = OwnershipFilter::all();
                    backend.build_share(tree, &candidates, 0..candidates.len(), all)
                }),
            ];
            for (built_from, build) in builds {
                let on = format!("{} at k={k} from {built_from}", backend.name());
                let count = |txs: &[Transaction], page: usize| {
                    let mut counter = build();
                    let filter = OwnershipFilter::all();
                    allocations(|| txs.chunks(page).for_each(|p| counter.count_all(p, &filter)))
                };
                for page in [db.len(), 100] {
                    let (once, twice) = (count(&db[..n], page), count(db, page));
                    assert_eq!(once, twice, "{on}, pages of {page}: N vs 2N");
                }
            }
        }
    }
}

/// Bytes per item of `F₁` that pass 2 holds beside its counts: the
/// level's entry and box (32), the pair table's row (16), its rank → item
/// entry (4) and its share of the item id → rank lookup.
const PER_F1_ITEM: usize = 64;

/// Bytes per itemset of the level a pass returns: a 24-byte entry and the
/// set's 8-byte box.
const PER_LEVEL_ENTRY: usize = 32;

/// Bytes per cell of the hash tree's pass-2 shape, `b` root slots plus `b`
/// for each split root bucket: its slot (4) and at most one leaf, the
/// leaf's bound (4) and the last transaction that reached it (8).
const PER_SHAPE_CELL: usize = 16;

/// Pass 2 of serial `mine` with the trie and with the vertical backend
/// holds one count per candidate, its result and `F₁`-sized indexes, and
/// not one pair of `C₂`; with the hash tree, that plus the tree's shape.
/// Measured when set: 1,080,940 bytes (trie, vertical) and 1,300,016
/// (hash tree, fan-out 115) for |F₁| = 460, |C₂| = 105,570, |F₂| = 6,396,
/// against budgets of 1,095,056 and 1,308,496.
#[test]
fn serial_pass_two_holds_its_counts() {
    let _serial = serial();
    let dataset = sparse(4_000);
    let backends = [
        CounterBackend::Trie,
        CounterBackend::Vertical,
        CounterBackend::HashTree,
    ];
    for backend in backends {
        let params = AprioriParams::with_min_support_count(12).max_k(2);
        let miner = Apriori::new(params.counter(backend));
        let (run, peak) = peak_above(|| miner.mine(dataset.transactions()));
        let (f1, c2, f2) = (
            run.passes[0].frequent,
            run.passes[1].candidates,
            run.passes[1].frequent,
        );
        assert!(c2 > 100_000, "too few candidates to see: {c2}");
        let shape = match backend {
            CounterBackend::HashTree => {
                let b = HashTreeParams::default().fan_out(2, c2);
                PER_SHAPE_CELL * b * (b + 1)
            }
            CounterBackend::Trie | CounterBackend::Vertical => 0,
        };
        let budget = 8 * c2 + PER_LEVEL_ENTRY * f2 + PER_F1_ITEM * f1 + 16 * 1024 + shape;
        assert!(
            peak <= budget,
            "{}: pass 2 peaked {peak} bytes above the input, over its budget of {budget} \
             (|F1| {f1}, |C2| {c2}, |F2| {f2})",
            backend.name()
        );
    }
}

/// Native CD on two ranks over a seeded sparse input: each rank holds its
/// counts, one chunk of the all-reduce in flight and `F₁`-sized indexes —
/// no shared `C₂` arena, no copy of its rows, no cells and no count-vector
/// copy. Measured when set: 2,596,800 bytes for |F₁| = 460,
/// |C₂| = 105,570, against a budget of 2,625,328. Slack covers the rank
/// threads and their channels, whose timing moves a few bytes.
#[test]
fn native_cd_pass_two_holds_its_counts() {
    let _serial = serial();
    let dataset = sparse(4_000);
    let params = ParallelParams::with_min_support_count(12)
        .counter(CounterBackend::Trie)
        .max_k(2);
    let procs = 2;
    let miner = ParallelMiner::new(procs).backend(ExecBackend::Native);
    let (run, peak) = peak_above(|| miner.mine(Algorithm::Cd, &dataset, &params));
    let (f1, c2) = (run.passes[0].frequent, run.passes[1].candidates);
    assert!(c2 > 100_000, "too few candidates to see: {c2}");
    let per_rank = 8 * c2 + 8 * c2 / procs + PER_F1_ITEM * f1;
    let budget = procs * per_rank + 32 * 1024;
    assert!(
        peak <= budget,
        "native CD pass 2 peaked {peak} bytes above the input, over its budget of {budget} \
         (|F1| {f1}, |C2| {c2})"
    );
}

/// A seeded dense Quest input: T10.I4 over 250 items, the benchmark's
/// `dense_default` shape at a fifth of its size.
fn dense(n: usize) -> Dataset {
    QuestParams::paper_t15_i6()
        .num_transactions(n)
        .num_items(250)
        .num_patterns(120)
        .avg_transaction_len(10.0)
        .avg_pattern_len(4.0)
        .seed(4242)
        .generate()
}

/// Bytes per frequent itemset of the rule step's support index: a 24-byte
/// entry and a control byte per bucket, 1.6 buckets per set here.
const PER_INDEXED_SET: usize = 41;

/// Bytes per rule the ranking may hold unbuilt: a generation index, the
/// itemset's slice, the consequent mask, two counts and the confidence.
const PER_RANKED_RULE: usize = 56;

/// `top_rules(…, 20)` ranks rules before it builds them: on one lattice,
/// at two confidences whose rule counts differ more than twofold, it
/// allocates within one small budget, and its peak live bytes stay within
/// the support index plus `2·20 + 64` ranked rules. Measured when set:
/// 61 and 59 allocations, 418,832 and 418,428 bytes for |F| = 10,081 and
/// 100,484 and 28,006 rules, against budgets of 64 and 419,145.
#[test]
fn the_rule_step_holds_its_index_and_the_top_rules() {
    let _serial = serial();
    let dataset = dense(4_000);
    let params = AprioriParams::with_min_support_count(20).counter(CounterBackend::Vertical);
    let run = Apriori::new(params).mine(dataset.transactions());
    let sets = run.frequent.len();
    let top = 20;
    let budget = PER_INDEXED_SET * sets + (2 * top + 64) * PER_RANKED_RULE;
    let mut counts = Vec::new();
    for conf in [0.5, 0.9] {
        let mut ranked = (0, 0);
        let made = allocations(|| {
            let ((count, best), peak) = peak_above(|| top_rules(&run.frequent, conf, top));
            assert_eq!(best.len(), top);
            ranked = (count, peak);
        });
        let (count, peak) = ranked;
        let on = format!("{count} rules at {conf} over {sets} sets");
        assert!(made <= 64, "{on}: {made} allocations, over a budget of 64");
        assert!(
            peak <= budget,
            "{on}: peaked {peak} bytes, over a budget of {budget}"
        );
        counts.push(count);
    }
    assert!(counts[0] > 100_000, "{counts:?}");
    assert!(counts[0] > 2 * counts[1], "{counts:?}");
}
