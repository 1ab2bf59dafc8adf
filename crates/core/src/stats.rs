//! Descriptive statistics of a transaction database.
//!
//! Used by the CLI's `stats` subcommand and by experiments to
//! characterize generated workloads (the paper describes its datasets by
//! exactly these numbers: transaction-length distribution, item skew).

use crate::dataset::Dataset;
use crate::item::Item;

/// Summary statistics of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of transactions (`N`).
    pub num_transactions: usize,
    /// Declared item-universe size.
    pub num_items: u32,
    /// Items that actually occur at least once.
    pub active_items: usize,
    /// Average transaction length (`|T|`).
    pub avg_transaction_len: f64,
    /// Minimum transaction length.
    pub min_transaction_len: usize,
    /// Maximum transaction length.
    pub max_transaction_len: usize,
    /// Density: avg length / active items (fraction of the universe a
    /// transaction touches).
    pub density: f64,
    /// Gini coefficient of item occurrence counts — 0 is uniform, →1 is
    /// extreme skew. Quest data is moderately skewed (exponential pattern
    /// weights).
    pub item_gini: f64,
    /// The `top_items` most frequent items with their counts, descending.
    pub top_items: Vec<(Item, u64)>,
}

/// Computes the summary, keeping the `top_k` most frequent items.
pub fn dataset_stats(dataset: &Dataset, top_k: usize) -> DatasetStats {
    let counts = dataset.item_counts();
    let active: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    let lengths: Vec<usize> = dataset.transactions().iter().map(|t| t.len()).collect();
    let mut indexed: Vec<(Item, u64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (Item(i as u32), c))
        .collect();
    indexed.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    indexed.truncate(top_k);
    DatasetStats {
        num_transactions: dataset.len(),
        num_items: dataset.num_items(),
        active_items: active.len(),
        avg_transaction_len: dataset.avg_transaction_len(),
        min_transaction_len: lengths.iter().copied().min().unwrap_or(0),
        max_transaction_len: lengths.iter().copied().max().unwrap_or(0),
        density: if active.is_empty() {
            0.0
        } else {
            dataset.avg_transaction_len() / active.len() as f64
        },
        item_gini: gini(&active),
        top_items: indexed,
    }
}

/// Gini coefficient of a set of non-negative weights (0 = all equal).
fn gini(weights: &[u64]) -> f64 {
    if weights.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = weights.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // G = (2·Σ i·x_i) / (n·Σ x) − (n+1)/n, with 1-based rank i.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} transactions over {} items ({} active)",
            self.num_transactions, self.num_items, self.active_items
        )?;
        writeln!(
            f,
            "transaction length: avg {:.1}, min {}, max {}; density {:.3}",
            self.avg_transaction_len,
            self.min_transaction_len,
            self.max_transaction_len,
            self.density
        )?;
        writeln!(f, "item skew (Gini): {:.3}", self.item_gini)?;
        write!(f, "top items:")?;
        for (item, count) in &self.top_items {
            write!(f, " {item}({count})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    #[test]
    fn basic_summary() {
        let d = Dataset::new(vec![tx(1, &[0, 1]), tx(2, &[1, 2, 3]), tx(3, &[1])]);
        let s = dataset_stats(&d, 2);
        assert_eq!(s.num_transactions, 3);
        assert_eq!(s.active_items, 4);
        assert_eq!(s.min_transaction_len, 1);
        assert_eq!(s.max_transaction_len, 3);
        assert!((s.avg_transaction_len - 2.0).abs() < 1e-12);
        assert_eq!(s.top_items[0], (Item(1), 3));
        assert_eq!(s.top_items.len(), 2);
    }

    #[test]
    fn gini_uniform_is_zero() {
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12);
    }

    #[test]
    fn gini_extreme_skew_near_one() {
        let mut w = vec![0u64; 999];
        w.push(1_000_000);
        assert!(gini(&w) > 0.99);
    }

    #[test]
    fn gini_known_value() {
        // For [1, 3]: G = (2·(1·1 + 2·3))/(2·4) − 3/2 = 14/8 − 1.5 = 0.25.
        assert!((gini(&[1, 3]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gini_degenerate() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
        assert_eq!(gini(&[7]), 0.0);
    }

    #[test]
    fn empty_dataset_stats() {
        let s = dataset_stats(&Dataset::new(vec![]), 5);
        assert_eq!(s.num_transactions, 0);
        assert_eq!(s.density, 0.0);
        assert!(s.top_items.is_empty());
    }

    #[test]
    fn display_renders() {
        let d = Dataset::new(vec![tx(1, &[0, 1])]);
        let text = dataset_stats(&d, 3).to_string();
        assert!(text.contains("1 transactions"));
        assert!(text.contains("Gini"));
    }
}
