//! Result tables: pretty terminal output + CSV files for plotting, plus
//! the one shared set of numeric formatters every experiment's
//! table/CSV rendering uses, and the registry-snapshot JSON writer the
//! `BENCH_*.json` perf-trajectory files go through.

use armine_metrics::json::BenchDocument;
use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple result table.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub(crate) fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub(crate) fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table with aligned columns.
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub(crate) fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes CSV into [`experiments_dir`]`/<name>.csv`. Returns the path
    /// written.
    pub(crate) fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = experiments_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Where experiment CSVs and `BENCH_*.json` snapshots land: the
/// workspace `experiments/` directory, unless `ARMINE_EXPERIMENTS_DIR`
/// redirects it (smoke tests use this so they never overwrite the
/// committed artifacts).
fn experiments_dir() -> PathBuf {
    std::env::var_os("ARMINE_EXPERIMENTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments"))
}

/// Redirects [`experiments_dir`] to a scratch directory for the rest of
/// the test process. Smoke-sized sweep tests call this before running so
/// the committed `experiments/` artifacts stay untouched; the scratch
/// directory is shared (file names already differ per experiment).
#[cfg(test)]
pub(crate) fn use_scratch_experiments_dir() {
    let dir = std::env::temp_dir().join("armine_bench_test_experiments");
    std::env::set_var("ARMINE_EXPERIMENTS_DIR", &dir);
}

/// What the sweep tests read back from a finished table.
#[cfg(test)]
impl Table {
    /// The rendered data rows (one `Vec<String>` per [`Table::row`] call).
    pub(crate) fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }
}

/// Formats seconds as engineering-friendly milliseconds.
pub(crate) fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// Formats a ratio as a percentage with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats an already-in-percent overhead with an explicit sign
/// (`+3.2%` / `-0.4%`), the convention of the fault-overhead tables.
pub(crate) fn signed_pct(percent: f64) -> String {
    format!("{percent:+.1}%")
}

/// Formats a dimensionless ratio (speedup, blow-up factor) with two
/// decimals.
pub(crate) fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Writes a registry [`BenchDocument`] into `experiments/<name>.json` —
/// the uniform exporter behind every `BENCH_*.json` perf-trajectory
/// snapshot. Returns the path written.
pub(crate) fn write_bench_json(name: &str, doc: &BenchDocument) -> std::io::Result<PathBuf> {
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    doc.write_to(&path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["P", "time"]);
        t.row(&[&4, &"1.25"]);
        t.row(&[&128, &"0.5"]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("128"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn csv_roundtrip() {
        use_scratch_experiments_dir();
        let mut t = Table::new("csv", &["a", "b"]);
        t.row(&[&1, &2]);
        let path = t.write_csv("_test_csv").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(0.001), "1.000");
        assert_eq!(pct(0.054), "5.4%");
        assert_eq!(signed_pct(3.21), "+3.2%");
        assert_eq!(signed_pct(-0.44), "-0.4%");
        assert_eq!(ratio(2.0 / 3.0), "0.67");
    }

    #[test]
    fn bench_json_writer_writes_the_document_bytes() {
        use_scratch_experiments_dir();
        use armine_metrics::{Labels, MetricShard};
        let mut shard = MetricShard::new();
        shard.set_gauge(
            "armine.run.response_seconds",
            Labels::new().with("procs", 4),
            0.125,
        );
        let doc = BenchDocument::new("writer_test", shard.snapshot(&Labels::new()));
        let path = write_bench_json("_test_bench_writer", &doc).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, doc.to_json());
        std::fs::remove_file(path).ok();
    }
}
