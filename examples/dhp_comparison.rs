//! Serial Apriori vs DHP (Park–Chen–Yu): same answers, fewer candidates.
//!
//! DHP's bucket filter kills most of the pass-2 candidates before any
//! hash tree is built, and its transaction trimming shrinks every later
//! scan — the ideas PDM parallelizes (see `exp pdm`).
//!
//! ```sh
//! cargo run --release --example dhp_comparison
//! ```

use armine::core::apriori::{Apriori, AprioriParams};
use armine::core::dhp::{Dhp, DhpParams};
use armine::datagen::QuestParams;

fn main() {
    let dataset = QuestParams::paper_t15_i6()
        .num_transactions(5000)
        .num_items(400)
        .num_patterns(200)
        .seed(77)
        .generate();
    let support = 0.01;

    let apriori = Apriori::new(AprioriParams::with_min_support(support).max_k(4))
        .mine(dataset.transactions());
    let dhp = Dhp::new(
        DhpParams::with_min_support(support)
            .buckets(1 << 16)
            .max_k(4),
    )
    .mine(dataset.transactions());

    assert_eq!(
        apriori.frequent.len(),
        dhp.frequent().len(),
        "identical lattices by construction"
    );
    println!(
        "{} @ {:.1}% support: {} frequent itemsets\n",
        QuestParams::paper_t15_i6().num_transactions(5000).name(),
        support * 100.0,
        apriori.frequent.len()
    );
    println!(
        "{:>4}  {:>12}  {:>12}  {:>8}  {:>12}  {:>12}",
        "pass", "apriori |C|", "DHP |C|", "pruned", "live tx", "live items"
    );
    for (i, dp) in dhp.dhp_passes.iter().enumerate() {
        let pruned = if dp.apriori_candidates > 0 {
            format!(
                "{:.1}%",
                100.0 * (dp.apriori_candidates - dp.candidates) as f64
                    / dp.apriori_candidates as f64
            )
        } else {
            "-".into()
        };
        println!(
            "{:>4}  {:>12}  {:>12}  {:>8}  {:>12}  {:>12}",
            i + 1,
            dp.apriori_candidates,
            dp.candidates,
            pruned,
            dp.live_transactions,
            dp.live_items
        );
    }
    println!(
        "\ntotal candidates pruned by the hash filters: {}",
        dhp.candidates_pruned()
    );
}
