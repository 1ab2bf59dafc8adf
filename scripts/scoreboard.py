#!/usr/bin/env python3
"""The simplicity scoreboard: production lines, test lines, public items,
unshared public items, benchmark-contract shims and concepts.

With no arguments, one row per workspace crate (`crates/*` and the root
package), a `workspace` row and a total, and exit status 1 when a crate has
more unshared items than its ceiling in `UNSHARED_CEILING` or more
production lines than its ceiling in `PRODUCTION_CEILING`, when a row has
more concepts than its ceiling in `CONCEPTS_CEILING`, or when DESIGN.md is
longer than `DESIGN_CEILING` lines. With paths, one row per given `.rs`
file and a total.
A file's production lines are those above its first `#[cfg(test)]` that opens
a `mod`, less any other `#[cfg(test)]` item above it (a helper function or
impl, up to its closing brace); the rest are test lines, and so is every line
of a file whose own `mod` declaration is `#[cfg(test)]`-gated and of
everything under a crate's `tests/`. Public items are
`pub fn|struct|enum|trait|mod|const` declarations in the production part.
A public item is unshared when no caller outside its crate names it: no
word of the code (string literals and `//` comments left out) of another
workspace crate's production lines, of `benchmark/probe/src` or of
`examples/` is its name. Shims are production lines marked
`// benchmark-contract shim`: items kept only because `benchmark/` still
calls them, a legacy twin each.
Concepts are what a newcomer must hold: per crate, the
`pub struct|enum|trait|type` declarations in the production part; in the
`workspace` row, the `armine` subcommands and `--flags` its `USAGE` names,
the series names `crates/metrics/src/names.rs` declares and the experiment
names in `EXPERIMENTS` of `crates/bench/src/lib.rs`.
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PUB_ITEM = re.compile(r"^\s*pub (?:const )?(?:unsafe )?(?:fn|struct|enum|trait|mod|const)\s+(\w+)")
PUB_TYPE = re.compile(r"^\s*pub (?:struct|enum|trait|type)\s+\w+")
# Callers besides the workspace crates' production sources.
CALLERS = ("benchmark/probe/src", "examples")
# The most unshared items each crate may hold (a crate not listed, none);
# each survivor's reason is in CHANGES.md. Lower a ceiling when an item goes.
UNSHARED_CEILING = {
    "armine-bench": 0,
    "armine-cli": 0,
    "armine-core": 17,
    "armine-datagen": 0,
    "armine-metrics": 9,
    "armine-mpsim": 5,
    "armine-parallel": 2,
    "armine": 0,
}
# The most production lines each crate may hold, at their measured values. A
# change that needs more raises its crate's ceiling in the same diff and
# names, in CHANGES.md, the measured gain that pays for the lines. Lower a
# ceiling when lines go.
PRODUCTION_CEILING = {
    "armine-bench": 1986,
    "armine-cli": 707,
    "armine-core": 6015,
    "armine-datagen": 507,
    "armine-metrics": 678,
    "armine-mpsim": 2650,
    "armine-parallel": 2502,
    "armine": 30,
}
# The most concepts each row may hold, at their measured values, under the
# same rule.
CONCEPTS_CEILING = {
    "armine-bench": 0,
    "armine-cli": 0,
    "armine-core": 28,
    "armine-datagen": 1,
    "armine-metrics": 7,
    "armine-mpsim": 17,
    "armine-parallel": 7,
    "armine": 0,
    "workspace": 73,
}
# The most lines DESIGN.md may hold, under the same rule.
DESIGN_CEILING = 846
SHIM = "// benchmark-contract shim"
STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
MOD = re.compile(r"^\s*(?:pub(?:\([^)]*\))? )?mod (\w+)\s*([;{])")


def gated_mods(lines):
    """(name, opens a body) of each `mod` whose attributes hold `#[cfg(test)]`,
    with the line index of that attribute."""
    for n, line in enumerate(lines):
        if line.strip() != "#[cfg(test)]":
            continue
        following = (l for l in lines[n + 1:] if not l.strip().startswith("#["))
        found = MOD.match(next(following, ""))
        if found:
            yield n, found.group(1), found.group(2) == "{"


def gated_items(lines):
    """Line ranges of the `#[cfg(test)]` items in `lines` other than a `mod`
    with a body: from the attribute through the line that closes the item's
    braces, or through its `;`."""
    n = 0
    while n < len(lines):
        body = MOD.match(lines[n + 1]) if n + 1 < len(lines) else None
        if lines[n].strip() != "#[cfg(test)]" or (body and body.group(2) == "{"):
            n += 1
            continue
        end, depth = n + 1, 0
        while end < len(lines):
            depth += lines[end].count("{") - lines[end].count("}")
            opened = "{" in "".join(lines[n + 1:end + 1])
            if (opened and depth == 0) or (not opened and lines[end].rstrip().endswith(";")):
                break
            end += 1
        yield range(n, end + 1)
        n = end + 1


def production_lines(path, all_test=False):
    """(production lines, number of all lines) of one source file."""
    lines = path.read_text().splitlines()
    opens_test_mod = (n for n, _, body in gated_mods(lines) if body)
    cut = 0 if all_test else next(opens_test_mod, len(lines))
    gated = {n for item in gated_items(lines[:cut]) for n in item}
    return [line for n, line in enumerate(lines[:cut]) if n not in gated], len(lines)


def score(path, shared, all_test=False):
    """(production lines, test lines, public items, unshared items, shims,
    concepts) of one source file, where `shared` holds the words callers
    outside its crate use."""
    production, total = production_lines(path, all_test)
    public = [found.group(1) for found in map(PUB_ITEM.match, production) if found]
    unshared = sum(1 for name in public if name not in shared)
    shims = sum(1 for line in production if SHIM in line)
    concepts = sum(1 for line in production if PUB_TYPE.match(line))
    return len(production), total - len(production), len(public), unshared, shims, concepts


def workspace_concepts():
    """The `armine` subcommands and distinct `--flags` in `USAGE`, the series
    names of `names.rs` and the experiments of `EXPERIMENTS`."""
    cli = (ROOT / "crates/cli/src/commands.rs").read_text()
    usage = cli.split('const USAGE: &str = "', 1)[1].split('";', 1)[0]
    commands = set(re.findall(r"^  armine (\w+)", usage, re.M))
    flags = set(re.findall(r"--[\w-]+", usage))
    names = (ROOT / "crates/metrics/src/names.rs").read_text()
    series = re.findall(r"^pub const \w+: &str", names, re.M)
    bench = (ROOT / "crates/bench/src/lib.rs").read_text()
    table = bench.split("const EXPERIMENTS: &[(&str, Args)] = &[", 1)[1].split("\n];", 1)[0]
    experiments = re.findall(r'^    \(\s*"([\w-]+)",', table, re.M)
    return len(commands) + len(flags) + len(series) + len(experiments)


def test_only_files(src):
    """Files under `src` whose `mod` declaration is `#[cfg(test)]`-gated."""
    for path in src.rglob("*.rs"):
        lines = path.read_text().splitlines()
        # A module's children live beside `lib.rs`/`main.rs`/`mod.rs`, and in
        # a directory named after any other file.
        is_root = path.name in ("lib.rs", "main.rs", "mod.rs")
        home = path.parent if is_root else path.with_suffix("")
        for _, name, body in gated_mods(lines):
            if not body:
                yield from (p for p in (home / f"{name}.rs", home / name / "mod.rs") if p.exists())


def crates():
    """(name, directory) of each workspace crate."""
    for manifest in sorted(ROOT.glob("crates/*/Cargo.toml")) + [ROOT / "Cargo.toml"]:
        name = re.search(r'^name = "(.+)"', manifest.read_text(), re.M).group(1)
        yield name, manifest.parent


def words(lines):
    """The words of `lines`' code: a string literal or a `//` comment that
    spells a name does not call it."""
    code = (STRING.sub("", line).split("//", 1)[0] for line in lines)
    return {word for line in code for word in re.findall(r"\w+", line)}


def shared_outside(home):
    """The words of every caller outside the crate at `home`."""
    outside = [words(production_lines(p)[0]) for d in CALLERS for p in (ROOT / d).rglob("*.rs")]
    for _, crate in crates():
        if crate != home:
            test_only = set(test_only_files(crate / "src"))
            files = (crate / "src").rglob("*.rs")
            outside += [words(production_lines(p, p in test_only)[0]) for p in files]
    return set().union(*outside)


def crate_rows():
    for name, crate in crates():
        shared = shared_outside(crate)
        test_only = set(test_only_files(crate / "src"))
        src = sorted((crate / "src").rglob("*.rs"))
        scores = [score(p, shared, p in test_only) for p in src]
        scores += [score(p, shared, all_test=True) for p in sorted((crate / "tests").rglob("*.rs"))]
        yield name, tuple(map(sum, zip(*scores)))


def home_of(path):
    """The crate directory holding `path`: its nearest `Cargo.toml`."""
    return next(d for d in path.resolve().parents if (d / "Cargo.toml").exists())


def main(paths):
    if paths:
        rows = [(p, score(Path(p), shared_outside(home_of(Path(p))))) for p in paths]
        over = []
    else:
        rows = list(crate_rows())
        over = [
            f"{name}: {row[3]} unshared items, above its ceiling of {UNSHARED_CEILING.get(name, 0)}"
            for name, row in rows
            if row[3] > UNSHARED_CEILING.get(name, 0)
        ]
        over += [
            f"{name}: {row[0]} production lines, above its ceiling of {PRODUCTION_CEILING.get(name, 0)}"
            for name, row in rows
            if row[0] > PRODUCTION_CEILING.get(name, 0)
        ]
        rows.append(("workspace", (0, 0, 0, 0, 0, workspace_concepts())))
        over += [
            f"{name}: {row[5]} concepts, above its ceiling of {CONCEPTS_CEILING.get(name, 0)}"
            for name, row in rows
            if row[5] > CONCEPTS_CEILING.get(name, 0)
        ]
        design = len((ROOT / "DESIGN.md").read_text().splitlines())
        if design > DESIGN_CEILING:
            over.append(f"DESIGN.md: {design} lines, above its ceiling of {DESIGN_CEILING}")
    rows.append(("total", tuple(map(sum, zip(*(r[1] for r in rows))))))
    width = max(len(name) for name, _ in rows)
    head = f"{'production':>10}  {'test':>7}  {'pub items':>9}  {'unshared':>8}  {'shims':>5}  {'concepts':>8}"
    print(f"{'':{width}}  {head}")
    for name, (production, test, public, unshared, shims, concepts) in rows:
        counts = f"{production:>10}  {test:>7}  {public:>9}  {unshared:>8}  {shims:>5}  {concepts:>8}"
        print(f"{name:{width}}  {counts}")
    for line in over:
        print(line)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
