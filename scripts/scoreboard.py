#!/usr/bin/env python3
"""The simplicity scoreboard: production lines, test lines and public items.

With no arguments, one row per workspace crate (`crates/*` and the root
package) and a total. With paths, one row per given `.rs` file and a total.
A file's production lines are those above its first `#[cfg(test)]` that opens
a `mod`, less any other `#[cfg(test)]` item above it (a helper function or
impl, up to its closing brace); the rest are test lines, and so is every line
of a file whose own `mod` declaration is `#[cfg(test)]`-gated and of
everything under a crate's `tests/`. Public items are
`pub fn|struct|enum|trait|mod|const` declarations in the production part.
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PUB_ITEM = re.compile(r"^\s*pub (?:const )?(?:unsafe )?(fn|struct|enum|trait|mod|const)\b")
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


def score(path, all_test=False):
    """(production lines, test lines, public items) of one source file."""
    lines = path.read_text().splitlines()
    opens_test_mod = (n for n, _, body in gated_mods(lines) if body)
    cut = 0 if all_test else next(opens_test_mod, len(lines))
    gated = {n for item in gated_items(lines[:cut]) for n in item}
    production = [line for n, line in enumerate(lines[:cut]) if n not in gated]
    public = sum(1 for line in production if PUB_ITEM.match(line))
    return len(production), len(lines) - len(production), public


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


def crate_rows():
    for manifest in sorted(ROOT.glob("crates/*/Cargo.toml")) + [ROOT / "Cargo.toml"]:
        name = re.search(r'^name = "(.+)"', manifest.read_text(), re.M).group(1)
        crate = manifest.parent
        test_only = set(test_only_files(crate / "src"))
        scores = [score(p, p in test_only) for p in sorted((crate / "src").rglob("*.rs"))]
        scores += [score(p, all_test=True) for p in sorted((crate / "tests").rglob("*.rs"))]
        yield name, tuple(map(sum, zip(*scores)))


def main(paths):
    if paths:
        rows = [(p, score(Path(p))) for p in paths]
    else:
        rows = list(crate_rows())
    rows.append(("total", tuple(map(sum, zip(*(r[1] for r in rows))))))
    width = max(len(name) for name, _ in rows)
    print(f"{'':{width}}  {'production':>10}  {'test':>7}  {'pub items':>9}")
    for name, (production, test, public) in rows:
        print(f"{name:{width}}  {production:>10}  {test:>7}  {public:>9}")


if __name__ == "__main__":
    main(sys.argv[1:])
