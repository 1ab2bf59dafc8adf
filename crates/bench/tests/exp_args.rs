//! `exp` refuses malformed command lines with exit code 2 before running
//! anything.

use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .env(
            "ARMINE_EXPERIMENTS_DIR",
            std::env::temp_dir().join("armine_exp_args"),
        )
        .output()
        .expect("exp runs")
}

fn assert_refused(args: &[&str], message: &str) {
    let out = exp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn zero_processors_are_a_bad_processor_count() {
    assert_refused(&["fig13", "0"], "exp: bad processor count '0'");
    assert_refused(&["fig10", "4", "x"], "exp: bad processor count 'x'");
}

#[test]
fn experiments_without_arguments_refuse_them() {
    assert_refused(&["table2", "bogus"], "usage: exp");
    assert_refused(&["table2", "bogus"], "'table2' takes no arguments");
    assert_refused(&["all", "fig13"], "usage: exp");
}
