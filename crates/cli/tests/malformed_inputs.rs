//! Dataset files that used to kill the process — an aborting allocation,
//! an index panic — must end the real binary the way every other bad
//! input does: exit code 2 and one `error:` line, from every subcommand
//! that reads a dataset.

use armine_core::io::write_transactions_binary;
use armine_core::{Dataset, Item, Transaction};
use std::process::Command;

/// `ARMN`, version 1, 10 items, one transaction whose length field claims
/// four billion items and whose body holds one.
fn huge_length_binary() -> Vec<u8> {
    let mut bytes = b"ARMN".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&10u32.to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&3u32.to_le_bytes());
    bytes
}

fn truncated_binary() -> Vec<u8> {
    let dataset = Dataset::new(vec![
        Transaction::new(1, vec![Item(0), Item(1)]),
        Transaction::new(2, vec![Item(1), Item(2)]),
    ]);
    let mut bytes = Vec::new();
    write_transactions_binary(&mut bytes, &dataset).unwrap();
    bytes.truncate(bytes.len() - 3);
    bytes
}

#[test]
fn malformed_datasets_exit_2_with_an_error_line() {
    let inputs: [(&str, Vec<u8>); 4] = [
        ("huge-length.bin", huge_length_binary()),
        ("huge-id.txt", b"1: 1 2 4000000000\n2: 1 2\n".to_vec()),
        ("wrapping-id.txt", b"1: 1 2 4294967295\n2: 1 2\n".to_vec()),
        ("truncated.bin", truncated_binary()),
    ];
    let subcommands: [&[&str]; 4] = [
        &["mine", "--min-count", "1"],
        &[
            "parallel",
            "--algorithm",
            "cd",
            "--procs",
            "2",
            "--min-count",
            "1",
        ],
        &["stats"],
        &["summary", "--min-count", "1"],
    ];
    let dir = std::env::temp_dir().join("armine_cli_malformed_inputs");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in &inputs {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        for subcommand in subcommands {
            let run = Command::new(env!("CARGO_BIN_EXE_armine"))
                .args(subcommand)
                .arg("--input")
                .arg(&path)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            let what = format!("{} on {name}: {stderr}", subcommand[0]);
            assert_eq!(run.status.code(), Some(2), "{what}");
            assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{what}");
            assert!(!stderr.contains("panicked"), "{what}");
            assert!(!stderr.contains("memory allocation"), "{what}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
