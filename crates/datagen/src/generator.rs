//! The transaction generator: parameters and assembly loop. The loop is a
//! stream ([`QuestParams::stream`]) that holds one transaction at a time;
//! [`QuestParams::generate`] is the caller that collects them.

use crate::dist::Poisson;
use crate::patterns::PatternPool;
use armine_core::{Dataset, Item, Transaction};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::convert::Infallible;

/// Parameters of the Quest generator, in the naming of the original tool:
/// a dataset `T15.I6.D100K` means `|T| = 15`, `|I| = 6`, `|D| = 100_000`.
///
/// Build with one of the presets ([`QuestParams::paper_t15_i6`],
/// [`QuestParams::default`]) and override fields with the builder methods,
/// then call [`QuestParams::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuestParams {
    /// `|D|` — number of transactions to generate.
    pub num_transactions: usize,
    /// `|T|` — average transaction length (Poisson mean).
    pub avg_transaction_len: f64,
    /// `|I|` — average maximal-pattern length (Poisson mean).
    pub avg_pattern_len: f64,
    /// `|L|` — number of maximal potentially large patterns.
    pub num_patterns: usize,
    /// `N` — number of distinct items.
    pub num_items: u32,
    /// Mean fraction of items a pattern reuses from its predecessor.
    pub correlation: f64,
    /// Mean of the per-pattern corruption level.
    pub corruption_mean: f64,
    /// Standard deviation of the per-pattern corruption level.
    pub corruption_sd: f64,
    /// RNG seed: same params + same seed ⇒ identical dataset.
    pub seed: u64,
}

impl Default for QuestParams {
    /// The original tool's defaults: T10.I4, 1000 items, 2000 patterns.
    fn default() -> Self {
        QuestParams {
            num_transactions: 10_000,
            avg_transaction_len: 10.0,
            avg_pattern_len: 4.0,
            num_patterns: 2000,
            num_items: 1000,
            correlation: 0.5,
            corruption_mean: 0.5,
            corruption_sd: 0.1f64.sqrt(),
            seed: 0,
        }
    }
}

impl QuestParams {
    /// The paper's workload shape: `|T| = 15`, `|I| = 6` (Section V).
    pub fn paper_t15_i6() -> Self {
        QuestParams {
            avg_transaction_len: 15.0,
            avg_pattern_len: 6.0,
            ..Default::default()
        }
    }

    /// Sets `|D|`, the number of transactions.
    pub fn num_transactions(mut self, n: usize) -> Self {
        self.num_transactions = n;
        self
    }

    /// Sets `N`, the item-universe size.
    pub fn num_items(mut self, n: u32) -> Self {
        self.num_items = n;
        self
    }

    /// Sets `|L|`, the pattern-pool size.
    pub fn num_patterns(mut self, n: usize) -> Self {
        self.num_patterns = n;
        self
    }

    /// Sets `|T|`, the average transaction length.
    pub fn avg_transaction_len(mut self, t: f64) -> Self {
        self.avg_transaction_len = t;
        self
    }

    /// Sets `|I|`, the average pattern length.
    pub fn avg_pattern_len(mut self, i: f64) -> Self {
        self.avg_pattern_len = i;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The conventional dataset name, e.g. `T15.I6.D100K`.
    pub fn name(&self) -> String {
        let d = self.num_transactions;
        let d_str = if d.is_multiple_of(1_000_000) && d > 0 {
            format!("{}M", d / 1_000_000)
        } else if d.is_multiple_of(1000) && d > 0 {
            format!("{}K", d / 1000)
        } else {
            format!("{d}")
        };
        format!(
            "T{}.I{}.D{}",
            self.avg_transaction_len.round() as u64,
            self.avg_pattern_len.round() as u64,
            d_str
        )
    }

    /// Generates the dataset: the collected [`QuestParams::stream`].
    ///
    /// # Panics
    /// If the parameters are degenerate (zero items or patterns with
    /// transactions requested).
    pub fn generate(&self) -> Dataset {
        let mut transactions = Vec::with_capacity(self.num_transactions);
        let Ok(()) = self.stream(|tid, items| {
            transactions.push(Transaction::from_sorted(tid, items.to_vec()));
            Ok::<(), Infallible>(())
        });
        Dataset::with_num_items(transactions, self.num_items)
    }

    /// Generates the dataset one transaction at a time: `sink` gets each
    /// tid (1-based, sequential) with its items, strictly ascending, in a
    /// buffer reused for the next. The sink's first error ends the stream.
    /// Panics as [`QuestParams::generate`].
    pub fn stream<E>(&self, mut sink: impl FnMut(u64, &[Item]) -> Result<(), E>) -> Result<(), E> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        if self.num_transactions == 0 {
            return Ok(());
        }
        let pool = PatternPool::build(
            &mut rng,
            self.num_patterns,
            self.num_items,
            self.avg_pattern_len,
            self.correlation,
            self.corruption_mean,
            self.corruption_sd,
        );
        let len_dist = Poisson::new(self.avg_transaction_len);
        let (mut items, mut instance) = (Vec::new(), Vec::new());
        // A pattern instance that overflowed the previous transaction and
        // was deferred ("saved for the next transaction"); empty if none,
        // as an instance never is.
        let mut carried: Vec<Item> = Vec::new();
        for tid in 0..self.num_transactions {
            let target = (len_dist.sample(&mut rng).max(1) as usize).min(self.num_items as usize);
            items.clear();
            items.append(&mut carried);
            // Pack corrupted pattern instances until the target length is
            // reached. If an instance would overflow, add it anyway half
            // the time; otherwise defer it to the next transaction.
            let mut guard = 0;
            while items.len() < target {
                pool.corrupted_instance(pool.pick(&mut rng), &mut rng, &mut instance);
                if items.len() + instance.len() > target {
                    if rng.gen::<bool>() {
                        items.extend_from_slice(&instance);
                    } else {
                        std::mem::swap(&mut carried, &mut instance);
                    }
                    break;
                }
                items.extend_from_slice(&instance);
                // Heavily corrupted pools can stall; bail out after enough
                // attempts rather than loop forever.
                guard += 1;
                if guard > 64 {
                    break;
                }
            }
            if items.is_empty() {
                // Extremely unlikely (deferred-only path); keep the
                // transaction well-formed with one random item.
                items.push(Item(rng.gen_range(0..self.num_items)));
            }
            items.sort_unstable();
            items.dedup();
            sink(tid as u64 + 1, &items)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_with_valid_items() {
        let d = QuestParams::paper_t15_i6()
            .num_transactions(500)
            .num_items(300)
            .seed(1)
            .generate();
        assert_eq!(d.len(), 500);
        assert_eq!(d.num_items(), 300);
        for t in d.transactions() {
            assert!(!t.is_empty());
            assert!(t.items().iter().all(|i| i.id() < 300));
        }
        // Sequential 1-based tids.
        assert_eq!(d.transactions()[0].tid(), 1);
        assert_eq!(d.transactions()[499].tid(), 500);
    }

    #[test]
    fn avg_length_tracks_t_parameter() {
        for (t_target, lo, hi) in [(5.0, 3.0, 7.5), (15.0, 11.0, 19.0)] {
            let d = QuestParams::default()
                .avg_transaction_len(t_target)
                .num_transactions(2000)
                .num_items(1000)
                .seed(2)
                .generate();
            let avg = d.avg_transaction_len();
            assert!(avg > lo && avg < hi, "target |T|={t_target}, got {avg}");
        }
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let a = QuestParams::default()
            .num_transactions(200)
            .seed(9)
            .generate();
        let b = QuestParams::default()
            .num_transactions(200)
            .seed(9)
            .generate();
        let c = QuestParams::default()
            .num_transactions(200)
            .seed(10)
            .generate();
        assert_eq!(a.transactions(), b.transactions());
        assert_ne!(a.transactions(), c.transactions());
    }

    #[test]
    fn produces_frequent_patterns() {
        // The whole point of the generator: planted patterns make some
        // 2-itemsets far more frequent than random co-occurrence would.
        let d = QuestParams::paper_t15_i6()
            .num_transactions(2000)
            .num_items(500)
            .num_patterns(50)
            .seed(3)
            .generate();
        use armine_core::apriori::{Apriori, AprioriParams, MinSupport};
        let run = Apriori::new(
            AprioriParams {
                min_support: MinSupport::Fraction(0.02),
                ..AprioriParams::with_min_support_count(0)
            }
            .max_k(2),
        )
        .mine(d.transactions());
        assert!(
            !run.frequent.level(2).is_empty(),
            "planted patterns must produce frequent 2-itemsets at 2% support"
        );
    }

    /// The text bytes of `armine gen` at seed 4242, N = 2000, hashed at the
    /// commit before the generator became a stream: the two shapes the
    /// benchmark generates, no transactions at all, and a universe of five
    /// items (every target is cut to it, so instances overflow and carry);
    /// and the sparse shape at N = 200,000, hashed at the commit before
    /// `PatternPool::pick` became a guide-table lookup. Reusing buffers
    /// and the guide table moved no RNG draw; and `generate` is the stream.
    #[test]
    fn stream_writes_the_bytes_the_collecting_generator_wrote() {
        use armine_core::io::{write_transaction_stream, write_transactions};
        use armine_core::stable_hash::fnv1a;
        let sparse = QuestParams::paper_t15_i6()
            .num_transactions(2000)
            .seed(4242);
        let dense = sparse.num_items(250).num_patterns(120);
        let dense = dense.avg_transaction_len(10.0).avg_pattern_len(4.0);
        let tiny = sparse.num_items(5).avg_transaction_len(10.0);
        for (params, bytes, hash) in [
            (sparse, 128_245, 0x301d_f307_976d_d8c7),
            (dense, 78_908, 0xb0c9_3022_fc37_dcaa),
            (sparse.num_transactions(0), 0, 0xcbf2_9ce4_8422_2325),
            (tiny, 28_199, 0x9325_c0e1_81ed_baef),
            (
                sparse.num_transactions(200_000),
                13_119_365,
                0x455b_324b_19a3_8801,
            ),
        ] {
            let mut streamed = Vec::new();
            write_transaction_stream(&mut streamed, None, |sink| params.stream(sink)).unwrap();
            assert_eq!(
                (streamed.len(), fnv1a(streamed.iter().copied())),
                (bytes, hash),
                "{params:?}"
            );
            let dataset = params.generate();
            assert_eq!(dataset.num_items(), params.num_items);
            let mut collected = Vec::new();
            write_transactions(&mut collected, &dataset).unwrap();
            assert!(
                collected == streamed,
                "generate() is not the stream: {params:?}"
            );
        }
    }

    #[test]
    fn zero_transactions() {
        let d = QuestParams::default().num_transactions(0).generate();
        assert!(d.is_empty());
        assert_eq!(d.num_items(), 1000);
    }

    #[test]
    fn name_formats_conventionally() {
        assert_eq!(
            QuestParams::paper_t15_i6().num_transactions(100_000).name(),
            "T15.I6.D100K"
        );
        assert_eq!(
            QuestParams::paper_t15_i6()
                .num_transactions(2_000_000)
                .name(),
            "T15.I6.D2M"
        );
        assert_eq!(
            QuestParams::paper_t15_i6().num_transactions(123).name(),
            "T15.I6.D123"
        );
    }

    #[test]
    fn small_universe_does_not_hang() {
        let d = QuestParams::default()
            .num_items(5)
            .avg_transaction_len(10.0)
            .num_transactions(50)
            .num_patterns(3)
            .seed(4)
            .generate();
        assert_eq!(d.len(), 50);
        for t in d.transactions() {
            assert!(t.len() <= 5);
        }
    }
}
