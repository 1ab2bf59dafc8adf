//! # armine-cli
//!
//! The `armine` command-line tool:
//!
//! ```text
//! armine gen      --out db.txt --transactions 10000 [--items 500] [--seed 1] ...
//! armine mine     --input db.txt --min-support 0.01 [--rules 0.8] [--max-k 4] ...
//! armine parallel --input db.txt --algorithm hd --procs 64 --min-support 0.01 ...
//! armine model    --n 1300000 --m 700000 --c 455 --s 16 --procs 64
//! armine stats    --input db.txt [--top 10]
//! armine summary  --input db.txt --min-support 0.01 [--kind closed]
//! ```
//!
//! The argument parser is hand-rolled (and unit-tested) to keep the
//! dependency set identical to the library's.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout();
    std::process::exit(run(&argv, &mut stdout));
}

/// Parses `argv` (without the program name) and runs. Returns the process
/// exit code.
///
/// A reader that closes the pipe early (`armine mine … | head -1`) has
/// everything it asked for: `BrokenPipe` is a clean exit, not an error.
fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    match commands::dispatch(argv, out) {
        Ok(()) => 0,
        Err(e) if is_broken_pipe(e.as_ref()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `armine help` for usage");
            2
        }
    }
}

fn is_broken_pipe(e: &(dyn std::error::Error + 'static)) -> bool {
    e.downcast_ref::<std::io::Error>()
        .is_some_and(|io| io.kind() == std::io::ErrorKind::BrokenPipe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind, Write};

    /// A pipe whose reader left after `budget` bytes.
    struct ClosedPipe {
        budget: usize,
    }

    impl Write for ClosedPipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(Error::from(ErrorKind::BrokenPipe));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn broken_pipe_is_a_clean_exit() {
        let argv = args::argv(&["help"]);
        assert_eq!(run(&argv, &mut ClosedPipe { budget: 0 }), 0);
        assert_eq!(run(&argv, &mut ClosedPipe { budget: 40 }), 0);
    }

    #[test]
    fn other_failures_still_exit_2() {
        assert_eq!(run(&args::argv(&["frobnicate"]), &mut Vec::new()), 2);
    }
}
