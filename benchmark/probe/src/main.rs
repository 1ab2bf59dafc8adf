//! The benchmark's layer probe. `probe SECTION --flag value ...` takes the
//! flags of the workload's own `armine` job, times each layer's public
//! calls from outside (src/layers.rs), recomputes what the job must print,
//! and writes one JSON object to stdout: metrics, reference, spans.

mod layers;
mod trace;

use layers::{Metrics, Reference, Value};
use std::collections::BTreeMap;
use std::fmt::Write;

/// `--key value` pairs, as the armine CLI spells them.
pub struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        for pair in args.chunks(2) {
            match pair {
                [key, value] if key.starts_with("--") => {
                    map.insert(key[2..].to_owned(), value.clone());
                }
                _ => return Err(format!("expected --flag value, got {pair:?}")),
            }
        }
        Ok(Flags(map))
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn optional<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for --{key}: {v:?}"))
            })
            .transpose()
    }

    pub fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.optional(key)?.ok_or(format!("missing --{key}"))
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (section, rest) = args
        .split_first()
        .ok_or("usage: probe SECTION --flag value ...")?;
    let flags = Flags::parse(rest)?;
    let mut tracer = trace::Tracer::new();
    let mut metrics = Metrics::default();
    let run_section = match section.as_str() {
        "serial" => layers::serial,
        "native" => layers::native,
        "sim" => layers::sim,
        "io" => layers::io,
        "reference" => layers::reference,
        other => return Err(format!("unknown section {other:?}")),
    };
    let reference = run_section(&mut tracer, &mut metrics, &flags)?;
    Ok(to_json(section, &metrics, &reference, &tracer.finish()))
}

fn to_json(
    section: &str,
    metrics: &Metrics,
    reference: &Reference,
    spans: &[trace::Span],
) -> String {
    let mut out = format!("{{\"section\": \"{section}\", \"metrics\": {{");
    for (i, (name, value)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        match value {
            Value::Count(v) => write!(out, "{sep}\"{name}\": {v}"),
            // `{:?}` prints the shortest digits that round-trip.
            Value::Real(v) => write!(out, "{sep}\"{name}\": {v:?}"),
        }
        .expect("writing to a String cannot fail");
    }
    let passes: Vec<String> = reference
        .passes
        .iter()
        .map(|(candidates, frequent)| format!("[{candidates}, {frequent}]"))
        .collect();
    write!(
        out,
        "}}, \"reference\": {{\"transactions\": {}, \"min_count\": {}, \"passes\": [{}], \
         \"itemsets\": {}, \"rules\": {}, \"virtual_ms\": {}}}, \"spans\": [",
        reference.transactions,
        reference.min_count,
        passes.join(", "),
        reference.itemsets,
        reference.rules.map_or("null".into(), |r| r.to_string()),
        reference
            .virtual_ms
            .as_ref()
            .map_or("null".into(), |v| format!("\"{v}\"")),
    )
    .expect("writing to a String cannot fail");
    for span in spans {
        let sep = if span.id == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"on_path\": {}, \"labels\": {{",
            span.id,
            span.parent.map_or("null".into(), |p| p.to_string()),
            span.name,
            span.on_path
        )
        .expect("writing to a String cannot fail");
        let labels: Vec<String> = trace::LABEL_KEYS
            .iter()
            .zip(&span.labels)
            .filter_map(|(key, value)| value.as_ref().map(|v| format!("\"{key}\": \"{v}\"")))
            .collect();
        write!(
            out,
            "{}}}, \"start_ns\": {}, \"end_ns\": {}}}",
            labels.join(", "),
            span.start_ns,
            span.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("probe: {e}");
            std::process::exit(1);
        }
    }
}
