//! Dataset files, flag values and fault-plan files that used to kill the
//! process — an aborting allocation, an index panic, a library `assert!`
//! — must end the real binary the way every other bad input does: exit
//! code 2 and one `error:` line.

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

fn armine() -> Command {
    Command::new(env!("CARGO_BIN_EXE_armine"))
}

/// Exit code 2, exactly one `error:` line, and no trace of a panic or abort.
/// Returns what was printed to stderr.
fn assert_refused(command: &mut Command, what: &str) -> String {
    let run = command.output().unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    let what = format!("{what}: {stderr}");
    assert_eq!(run.status.code(), Some(2), "{what}");
    let errors = stderr.lines().filter(|l| l.starts_with("error: ")).count();
    assert_eq!(errors, 1, "{what}");
    assert!(!stderr.contains("panicked"), "{what}");
    assert!(!stderr.contains("memory allocation"), "{what}");
    stderr.into_owned()
}

#[test]
fn malformed_datasets_exit_2_with_an_error_line() {
    let inputs: [(&str, Vec<u8>); 5] = [
        ("huge-length.bin", huge_length_binary()),
        ("huge-id.txt", b"1: 1 2 4000000000\n2: 1 2\n".to_vec()),
        ("wrapping-id.txt", b"1: 1 2 4294967295\n2: 1 2\n".to_vec()),
        ("truncated.bin", truncated_binary()),
        ("latin1.txt", b"1: 1 2\n2: 3 \xe9 4\n".to_vec()),
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
            let what = format!("{} on {name}", subcommand[0]);
            let stderr = assert_refused(armine().args(subcommand).arg("--input").arg(&path), &what);
            // A byte that is not UTF-8 is a bad token on a line, not a disk.
            if *name == "latin1.txt" {
                let named = "line 2: invalid item id \"\u{fffd}\"";
                assert!(stderr.contains(named), "{what}: {stderr}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Four flag values that reached a library `assert!` (one of them inside a
/// rank thread), a support count of zero, limits of zero and a per-mille
/// above 1000 that were silently read as another value, three plan
/// timers that reached the metrics registry's finiteness check, and plan
/// and cluster values too large for the native clock to sleep out, and a
/// bucket table and a rank count too large to allocate or start, on both
/// backends.
#[test]
fn out_of_range_flags_and_plan_timers_exit_2_with_an_error_line() {
    let dir = std::env::temp_dir().join("armine_cli_malformed_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (db, out) = (path("db.txt"), path("out.txt"));
    std::fs::write(&db, "1: 1 2 3\n2: 1 2\n3: 2 3\n").unwrap();

    let (plan, backends) = (path("timer.plan"), ["sim", "native"]);
    let gen = format!("gen --out {out} --transactions 10");
    let model = "model --n 1000 --m 100 --c 10 --s 4";
    let parallel = format!("parallel --input {db} --procs 2 --min-count 1");

    let mut cases = vec![format!("{gen} --patterns 0")];
    cases.extend(["0", "-1", "nan", "inf"].map(|mean| format!("{gen} --avg-len {mean}")));
    cases.extend(["0", "-4", "nan"].map(|procs| format!("{model} --procs {procs}")));
    for buckets in ["0", "18446744073709551615"] {
        let pdm = format!("{parallel} --algorithm pdm --buckets {buckets}");
        cases.extend(backends.map(|b| format!("{pdm} --backend {b}")));
    }
    // Support 0 makes every id of the universe "frequent".
    let zero = format!("--input {db} --min-count 0");
    cases.extend(["mine", "summary"].map(|sub| format!("{sub} {zero}")));
    cases.extend(
        backends.map(|b| format!("parallel {zero} --algorithm cd --procs 2 --backend {b}")),
    );
    // Limits of zero were read as one or ignored, a per-mille above 1000 as
    // 1000.
    for flag in ["page-size 0", "memory-capacity 0", "max-k 0"] {
        cases.extend(backends.map(|b| format!("{parallel} --algorithm cd --{flag} --backend {b}")));
    }
    cases.push(format!("mine --input {db} --min-count 1 --max-k 0"));
    cases.push(format!("{parallel} --algorithm hpa --eld-permille 5000"));
    for case in &cases {
        assert_refused(armine().args(case.split_whitespace()), case);
    }
    // No input: a bound that let 1025 through would name `--input` instead
    // of starting 1025 rank threads.
    for backend in backends {
        let case =
            format!("parallel --algorithm cd --procs 1025 --min-count 1 --backend {backend}");
        let stderr = assert_refused(armine().args(case.split_whitespace()), &case);
        assert!(
            stderr.contains("--procs: invalid value 1025"),
            "{case}: {stderr}"
        );
    }

    // The last five passed validation, and the native clock panicked
    // converting them into a sleep.
    for timer in [
        "rto = nan",
        "delay = nan",
        "delay = inf",
        "detect_timeout = nan",
        "slowdown 1 = 1e308",
        "drop_rate = 0.5\nrto = 1e300",
        "delay_rate = 0.5\ndelay = 1e300",
        "crash 1 = time:inf",
        "crash 1 = pass:2\ndetect_timeout = 1e300",
    ] {
        std::fs::write(&plan, format!("drop_rate = 0.3\n{timer}\n")).unwrap();
        for backend in backends {
            let case = format!("{parallel} --algorithm cd --fault-plan {plan} --backend {backend}");
            let what = format!("{case} with {timer:?}");
            assert_refused(armine().args(case.split_whitespace()), &what);
        }
    }
    let cluster = path("slow.cluster");
    std::fs::write(&cluster, "speed 1 = 1e-300\n").unwrap();
    for backend in backends {
        let case = format!("{parallel} --algorithm cd --cluster {cluster} --backend {backend}");
        assert_refused(armine().args(case.split_whitespace()), &case);
    }
    std::fs::remove_dir_all(&dir).ok();
}
