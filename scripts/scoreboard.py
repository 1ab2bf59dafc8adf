#!/usr/bin/env python3
"""The simplicity scoreboard: production lines, test lines and public items.

With no arguments, one row per workspace crate (`crates/*` and the root
package) and a total. With paths, one row per given `.rs` file and a total.
A file's production lines are those above its first `#[cfg(test)]`; the rest,
and everything under a crate's `tests/`, are test lines. Public items are
`pub fn|struct|enum|trait|mod|const` declarations in the production part.
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PUB_ITEM = re.compile(r"^\s*pub (?:const )?(?:unsafe )?(fn|struct|enum|trait|mod|const)\b")


def score(path, all_test=False):
    """(production lines, test lines, public items) of one source file."""
    lines = path.read_text().splitlines()
    is_test_start = (n for n, line in enumerate(lines) if line.strip() == "#[cfg(test)]")
    cut = 0 if all_test else next(is_test_start, len(lines))
    public = sum(1 for line in lines[:cut] if PUB_ITEM.match(line))
    return cut, len(lines) - cut, public


def crate_rows():
    for manifest in sorted(ROOT.glob("crates/*/Cargo.toml")) + [ROOT / "Cargo.toml"]:
        name = re.search(r'^name = "(.+)"', manifest.read_text(), re.M).group(1)
        crate = manifest.parent
        scores = [score(p) for p in sorted((crate / "src").rglob("*.rs"))]
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
