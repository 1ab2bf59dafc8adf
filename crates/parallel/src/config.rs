//! Shared knobs of the parallel formulations.

use armine_core::apriori::MinSupport;
use armine_core::counter::CounterBackend;
use armine_core::hashtree::HashTreeParams;

/// How the placement seam assigns work to ranks: candidate bins for the
/// partitioned formulations, transaction-page shares for the replicated
/// ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Fixed equal shares, decided once — the paper's standing assumption
    /// of identical processors (the default; reproduces the golden
    /// virtual-time fingerprints bit for bit).
    #[default]
    Static,
    /// Re-score the assignment at every pass boundary from the previous
    /// pass's per-rank measured (native) or simulated counting times,
    /// greedily steering the heaviest units to the effectively fastest
    /// ranks. The mined itemsets are identical either way; only the
    /// response time changes. Ignored (falls back to static) when the
    /// fault plan can crash ranks — recovery owns data placement then.
    Adaptive,
}

impl PlacementPolicy {
    /// Every policy, in CLI listing order.
    pub const ALL: [PlacementPolicy; 2] = [PlacementPolicy::Static, PlacementPolicy::Adaptive];

    /// Short name ("static" / "adaptive").
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::Static => "static",
            PlacementPolicy::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters common to every parallel formulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelParams {
    /// Minimum support threshold (fraction is relative to the whole
    /// database, not a processor's slice).
    pub min_support: MinSupport,
    /// Hash-tree shape on every processor; by default each tree's fan-out
    /// is sized from the candidate share it holds. Ignored by the other
    /// backends.
    pub tree: HashTreeParams,
    /// Which counting structure every processor builds over its candidate
    /// share. The hash-tree default is the paper's instrumented structure.
    pub counter: CounterBackend,
    /// Transactions per communication buffer ("one page" in the paper;
    /// their pages held ≈1000 transactions at 63 KB per 1000).
    pub page_size: usize,
    /// Per-processor hash-tree capacity in candidates. Only CD partitions
    /// its (replicated) tree and rescans when `|C_k|` exceeds this — the
    /// multi-scan penalty of Figures 12 and 15. DD/IDD/HD exploit
    /// aggregate memory instead.
    pub memory_capacity: Option<usize>,
    /// Stop after this pass (Figure 13 measures pass 3 alone).
    pub max_k: Option<usize>,
    /// For IDD's two-level refinement: split a first item across
    /// processors when it starts more than this many candidates. `None`
    /// uses plain single-level partitioning (the paper's default).
    pub split_threshold: Option<u64>,
    /// How work units are placed on ranks — static equal shares (the
    /// default) or adaptive pass-boundary re-balancing for heterogeneous
    /// clusters.
    pub placement: PlacementPolicy,
}

impl ParallelParams {
    /// Params with a fractional minimum support, defaults elsewhere.
    pub fn with_min_support(fraction: f64) -> Self {
        ParallelParams {
            min_support: MinSupport::Fraction(fraction),
            ..Self::default_counts(0)
        }
    }

    /// Params with an absolute minimum support count, defaults elsewhere.
    pub fn with_min_support_count(count: u64) -> Self {
        Self::default_counts(count)
    }

    fn default_counts(count: u64) -> Self {
        ParallelParams {
            min_support: MinSupport::Count(count),
            tree: HashTreeParams::default(),
            counter: CounterBackend::default(),
            page_size: 1000,
            memory_capacity: None,
            max_k: None,
            split_threshold: None,
            placement: PlacementPolicy::default(),
        }
    }

    /// Sets the hash-tree shape.
    pub fn tree(mut self, tree: HashTreeParams) -> Self {
        self.tree = tree;
        self
    }

    /// Selects the candidate-counting backend.
    pub fn counter(mut self, counter: CounterBackend) -> Self {
        self.counter = counter;
        self
    }

    /// Sets the communication buffer size in transactions.
    pub fn page_size(mut self, n: usize) -> Self {
        assert!(n >= 1, "page size must be positive");
        self.page_size = n;
        self
    }

    /// Caps the per-processor candidate capacity (CD multi-scan mode).
    pub fn memory_capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "memory capacity must be positive");
        self.memory_capacity = Some(cap);
        self
    }

    /// Stops mining after pass `k`.
    pub fn max_k(mut self, k: usize) -> Self {
        self.max_k = Some(k);
        self
    }

    /// Enables IDD's two-level candidate split for hot first items.
    pub fn split_threshold(mut self, t: u64) -> Self {
        self.split_threshold = Some(t);
        self
    }

    /// Selects the placement policy.
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let p = ParallelParams::with_min_support(0.01)
            .page_size(64)
            .memory_capacity(1000)
            .max_k(3)
            .split_threshold(50)
            .counter(CounterBackend::Trie)
            .placement(PlacementPolicy::Adaptive);
        assert_eq!(p.page_size, 64);
        assert_eq!(p.memory_capacity, Some(1000));
        assert_eq!(p.max_k, Some(3));
        assert_eq!(p.split_threshold, Some(50));
        assert_eq!(p.min_support, MinSupport::Fraction(0.01));
        assert_eq!(p.counter, CounterBackend::Trie);
        assert_eq!(p.placement, PlacementPolicy::Adaptive);
        // The default backend is the paper's hash tree.
        assert_eq!(
            ParallelParams::with_min_support_count(1).counter,
            CounterBackend::HashTree
        );
        // The default placement is the paper's static equal shares.
        assert_eq!(
            ParallelParams::with_min_support_count(1).placement,
            PlacementPolicy::Static
        );
    }

    #[test]
    fn placement_names_display_and_default() {
        for p in PlacementPolicy::ALL {
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::Static);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn zero_page_rejected() {
        ParallelParams::with_min_support_count(1).page_size(0);
    }
}
