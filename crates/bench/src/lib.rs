//! # armine-bench
//!
//! The experiment harness: one `exp <name>|all|--list` binary with one
//! experiment per table/figure of the paper (`exp table2`, `exp fig10` …
//! `exp fig15`, `exp model`, `exp imbalance`, …). Each experiment prints
//! the same series the paper plots and drops a CSV under `experiments/`
//! for plotting.
//!
//! Experiments run at 1:100 of the paper's scale (the virtual-time
//! simulator preserves the N/P, M/P and C/L ratios that determine curve
//! shapes; see DESIGN.md §1). Paper-vs-measured comparisons are recorded
//! in EXPERIMENTS.md.

pub mod experiments;
pub mod report;
pub mod workloads;
