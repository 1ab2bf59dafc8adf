//! The docs cite what exists. Over README.md, DESIGN.md, EXPERIMENTS.md,
//! `vendor/README.md` and every `//!` doc of the workspace's sources:
//!
//! - every backticked repository path names a file or directory that
//!   exists (a glob matches one);
//! - every backticked path of `::`-joined names (a type's item, a
//!   module's item) names identifiers the workspace's sources define;
//! - every `--flag` of an `armine …` command, backticked or run through
//!   `cargo run -p armine-cli --` in a code block, appears in `armine
//!   help`'s text (the CLI's `USAGE`);
//! - every experiment an `exp -- NAME` of README.md, DESIGN.md or
//!   EXPERIMENTS.md runs is one the `exp` binary lists (or `all`, or
//!   `--list`);
//! - no `file.rs:N` line reference appears: prose cites names, which do not
//!   drift when the lines around them move.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "vendor/README.md",
];
/// The workspace's own sources: where `//!` docs are read and where a
/// cited identifier must be defined.
const SOURCES: [&str; 6] = [
    "crates",
    "src",
    "tests",
    "examples",
    "vendor",
    "benchmark/probe/src",
];
/// Extensions that make a backticked word a file name.
const FILE_EXTENSIONS: [&str; 12] = [
    "rs", "md", "py", "sh", "json", "toml", "plan", "cluster", "csv", "yml", "lock", "txt",
];
/// First segments of paths outside the workspace.
const FOREIGN: [&str; 26] = [
    "std", "core", "alloc", "thread", "Arc", "Box", "Vec", "Option", "Result", "HashMap",
    "BTreeMap", "String", "str", "char", "bool", "u8", "u16", "u32", "u64", "u128", "usize", "i32",
    "i64", "f32", "f64", "Ordering",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir`, skipping build output.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name == "target" || name == ".git" {
            continue;
        }
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn rust_sources() -> Vec<PathBuf> {
    let mut all = Vec::new();
    for dir in SOURCES {
        files(&root().join(dir), &mut all);
    }
    all.retain(|p| p.extension().is_some_and(|e| e == "rs"));
    all
}

/// Each doc's name, its text with its fenced code blocks removed, and the
/// lines of those blocks.
fn docs() -> Vec<(String, String, String)> {
    let mut docs: Vec<(String, String)> = DOCS
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(root().join(name)).unwrap();
            (name.to_string(), text)
        })
        .collect();
    for path in rust_sources() {
        let text = std::fs::read_to_string(&path).unwrap();
        let module_doc: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("//!"))
            .collect();
        if !module_doc.is_empty() {
            let name = path.strip_prefix(root()).unwrap().display().to_string();
            docs.push((name, module_doc.join("\n")));
        }
    }
    docs.into_iter()
        .map(|(name, text)| {
            let (mut prose, mut code) = (Vec::new(), Vec::new());
            let mut fenced = false;
            for line in text.lines() {
                let fence = line.trim_start().starts_with("```");
                fenced ^= fence;
                match (fence, fenced) {
                    (true, _) => {}
                    (false, true) => code.push(line),
                    (false, false) => prose.push(line),
                }
            }
            (name, prose.join("\n"), code.join("\n"))
        })
        .collect()
}

/// The contents of each single-backtick span, a span wrapped over lines
/// joined by a space.
fn spans(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut parts = text.split('`');
    parts.next();
    while let (Some(inside), Some(_)) = (parts.next(), parts.next()) {
        out.push(inside.split_whitespace().collect::<Vec<_>>().join(" "));
    }
    out
}

/// Every name a declaration, a re-export, an enum variant, a field or a
/// module file of the workspace defines, and the crates' names.
fn defined() -> HashSet<String> {
    let mut names = HashSet::new();
    let keywords = [
        "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union",
    ];
    for path in rust_sources() {
        names.insert(path.file_stem().unwrap().to_string_lossy().into_owned());
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            let words: Vec<&str> = line
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .collect();
            // A re-export defines every name it brings in, aliases too.
            if line.trim_start().starts_with("pub use") {
                names.extend(words.iter().map(|w| w.to_string()));
            }
            for pair in words.windows(2) {
                if keywords.contains(&pair[0]) || pair[0] == "macro_rules" {
                    names.insert(pair[1].to_string());
                }
            }
            // A variant or field opens its line: `Name,` `Name(` `Name {`
            // `name:`, after any `pub`.
            let head = line.trim_start().trim_start_matches("pub ");
            let ident: String = head
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let rest = head[ident.len()..].trim_start();
            if !ident.is_empty() && [",", "(", "{", ":"].iter().any(|p| rest.starts_with(p)) {
                names.insert(ident);
            }
        }
    }
    let mut manifests = Vec::new();
    files(&root().join("crates"), &mut manifests);
    files(&root().join("vendor"), &mut manifests);
    manifests.retain(|p| p.ends_with("Cargo.toml"));
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).unwrap();
        if let Some(line) = text.lines().find(|l| l.starts_with("name = ")) {
            let name = line.trim_start_matches("name = ").trim_matches('"');
            names.insert(name.replace('-', "_"));
        }
    }
    names.insert("armine".into());
    names
}

/// Whether `span` reads as a repository path: path characters only, and a
/// file extension, a closing `/` or a segment of three characters or more
/// between `/`s (`M/P` and `tx/s` are ratios).
fn as_path(span: &str) -> Option<&str> {
    let span = span.trim_end_matches([',', '.', ':']);
    let allowed = |c: char| c.is_ascii_alphanumeric() || "_-./*".contains(c);
    if span.is_empty() || !span.chars().all(allowed) {
        return None;
    }
    let last = span.trim_end_matches('/').rsplit('/').next().unwrap();
    let extension = last.rsplit_once('.').map(|(_, e)| e);
    let is_file = extension.is_some_and(|e| FILE_EXTENSIONS.contains(&e));
    let long_segment = span.split('/').any(|s| s.len() >= 3);
    let directory = span.contains('/') && (span.ends_with('/') || long_segment);
    (directory || is_file).then_some(span)
}

/// Whether `pattern` (`*` matching within one segment) names a file or
/// directory of `all`, the repository's files: from the root when its
/// first segment is a top-level entry, else as the tail of a path (a
/// crate's `src/lib.rs`, a bare `summaries.rs`).
fn resolves(pattern: &str, all: &[String]) -> bool {
    let wanted: Vec<&str> = pattern.trim_end_matches('/').split('/').collect();
    let anchored = root().join(wanted[0]).exists();
    all.iter().any(|path| {
        let mut segments: Vec<&str> = path.split('/').collect();
        // Directories are the prefixes of the files under them.
        (1..=segments.len()).rev().any(|len| {
            segments.truncate(len);
            let fits = if anchored {
                segments.len() == wanted.len()
            } else {
                segments.len() >= wanted.len()
            };
            fits && segments[segments.len() - wanted.len()..]
                .iter()
                .zip(&wanted)
                .all(|(have, want)| glob(want, have))
        })
    })
}

/// Whether `name` matches `pattern`, `*` standing for any run of characters.
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.len() >= head.len() + tail.len()
                && name.starts_with(head)
                && (0..=name.len() - head.len()).any(|at| glob(tail, &name[head.len() + at..]))
        }
    }
}

/// The `::` paths of a span, braces expanded: `A::{b, c}` is `A::b` and
/// `A::c`.
fn item_paths(span: &str) -> Vec<Vec<String>> {
    let ident = |s: &str| {
        let s = s.trim().trim_end_matches("()");
        let word = |w: &str| {
            w.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                && w.chars().all(|c| c.is_alphanumeric() || c == '_')
        };
        word(s).then(|| s.to_string())
    };
    let Some((head, tail)) = span.split_once("::") else {
        return Vec::new();
    };
    let Some(head) = ident(head) else {
        return Vec::new();
    };
    let tails: Vec<&str> = match tail.strip_prefix('{').and_then(|t| t.strip_suffix('}')) {
        Some(list) => list.split(',').collect(),
        None => vec![tail],
    };
    let mut out = Vec::new();
    for tail in tails {
        let segments: Option<Vec<String>> = tail.split("::").map(ident).collect();
        let Some(segments) = segments else {
            return Vec::new();
        };
        out.push([vec![head.clone()], segments].concat());
    }
    out
}

#[test]
fn backticked_repository_paths_exist() {
    let mut all = Vec::new();
    files(&root(), &mut all);
    let all: Vec<String> = all
        .iter()
        .map(|p| p.strip_prefix(root()).unwrap().display().to_string())
        .collect();
    let mut missing = Vec::new();
    for (doc, text, _) in docs() {
        for span in spans(&text) {
            if let Some(path) = as_path(&span) {
                if !resolves(path, &all) {
                    missing.push(format!("{doc}: `{span}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn backticked_item_paths_name_workspace_identifiers() {
    let defined = defined();
    let mut unknown = Vec::new();
    for (doc, text, _) in docs() {
        for span in spans(&text) {
            for path in item_paths(&span) {
                if FOREIGN.contains(&path[0].as_str()) {
                    continue;
                }
                let named = ["crate", "self", "super", "Self"];
                let undefined = path
                    .iter()
                    .filter(|s| !named.contains(&s.as_str()) && !defined.contains(*s))
                    .collect::<Vec<_>>();
                if !undefined.is_empty() {
                    unknown.push(format!("{doc}: `{span}` ({undefined:?})"));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "names no source defines:\n{}",
        unknown.join("\n")
    );
}

/// `armine help`'s text: the `USAGE` const of the CLI's `commands.rs`.
fn usage() -> String {
    let source = std::fs::read_to_string(root().join("crates/cli/src/commands.rs")).unwrap();
    let head = "const USAGE: &str = \"";
    let start = source.find(head).expect("commands.rs defines USAGE") + head.len();
    let len = source[start..].find("\";").expect("USAGE ends");
    source[start..start + len].to_string()
}

/// The arguments of each `armine` command of a doc: a backticked span of
/// `prose` that starts `armine `, and what follows `-p armine-cli --` in a
/// span or a line of `code` (a line ending in `\` goes on in the next).
fn armine_commands(prose: &str, code: &str) -> Vec<String> {
    let code = code.replace("\\\n", " ");
    let spans = spans(prose);
    let mut out: Vec<String> = spans
        .iter()
        .filter(|span| span.starts_with("armine "))
        .cloned()
        .collect();
    for piece in spans.iter().map(String::as_str).chain(code.lines()) {
        if let Some((_, args)) = piece.split_once("-p armine-cli --") {
            out.push(args.to_string());
        }
    }
    out
}

/// The `--flag`s of `text`.
fn flags(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.len() > 2 && word.starts_with("--"))
}

#[test]
fn backticked_armine_commands_use_flags_armine_help_lists() {
    let usage = usage();
    let listed: HashSet<&str> = flags(&usage).collect();
    assert!(listed.contains("--min-support"), "USAGE was not read");
    let (mut checked, mut unknown) = (0, Vec::new());
    for (doc, prose, code) in docs() {
        for command in armine_commands(&prose, &code) {
            checked += flags(&command).count();
            let missing: Vec<&str> = flags(&command).filter(|f| !listed.contains(f)).collect();
            if !missing.is_empty() {
                unknown.push(format!("{doc}: `{command}` ({missing:?})"));
            }
        }
    }
    assert!(checked > 20, "only {checked} flags in backticked commands");
    assert!(
        unknown.is_empty(),
        "flags `armine help` does not list:\n{}",
        unknown.join("\n")
    );
}

/// The names of the `exp` binary's experiments: the first string of each
/// entry of `EXPERIMENTS` in `crates/bench/src/lib.rs`, on the entry's
/// line or the next.
fn experiments() -> HashSet<String> {
    let source = std::fs::read_to_string(root().join("crates/bench/src/lib.rs")).unwrap();
    let head = "const EXPERIMENTS: &[(&str, Args)] = &[";
    let start = source.find(head).expect("lib.rs defines EXPERIMENTS") + head.len();
    let len = source[start..].find("\n];").expect("EXPERIMENTS ends");
    let mut lines = source[start..start + len].lines().map(str::trim);
    let mut names = HashSet::new();
    while let Some(line) = lines.next() {
        let entry = match line {
            "(" => lines.next(),
            _ => line.strip_prefix('('),
        };
        let name = entry.and_then(|e| e.strip_prefix('"')?.split_once('"'));
        if let Some((name, _)) = name {
            names.insert(name.to_string());
        }
    }
    names
}

#[test]
fn exp_commands_name_experiments_the_binary_runs() {
    let mut known = experiments();
    assert!(known.contains("fig10"), "EXPERIMENTS was not read");
    known.extend(["all".to_string(), "--list".to_string()]);
    let (mut checked, mut unknown) = (0, Vec::new());
    let read = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
    for (doc, prose, code) in docs()
        .into_iter()
        .filter(|(doc, ..)| read.contains(&&**doc))
    {
        let text = format!("{prose}\n{code}");
        for (_, rest) in text
            .match_indices("exp -- ")
            .map(|(at, m)| text.split_at(at + m.len()))
        {
            let name = rest
                .split(|c: char| c.is_whitespace() || c == '`')
                .next()
                .unwrap();
            checked += 1;
            if !known.contains(name) {
                unknown.push(format!("{doc}: exp -- {name}"));
            }
        }
    }
    assert!(checked > 20, "only {checked} `exp -- NAME` commands");
    assert!(
        unknown.is_empty(),
        "experiments `exp` does not run:\n{}",
        unknown.join("\n")
    );
}

#[test]
fn no_doc_cites_a_line_number() {
    let mut cited = Vec::new();
    for (doc, text, _) in docs() {
        for word in text.split(|c: char| c.is_whitespace() || "`()[],;".contains(c)) {
            if let Some((file, line)) = word.split_once(".rs:") {
                let number = line.chars().take_while(char::is_ascii_digit).count();
                if !file.is_empty() && number > 0 {
                    cited.push(format!("{doc}: {word}"));
                }
            }
        }
    }
    assert!(cited.is_empty(), "line references:\n{}", cited.join("\n"));
}
