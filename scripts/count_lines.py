#!/usr/bin/env python3
"""Print the non-test source lines of each workspace crate.

Usage: count_lines.py

A file's non-test lines are the lines before its first ``#[cfg(test)]``
or ``#[cfg(all(test...`` attribute (the whole file when it has none).
Each crate's count sums ``crates/<crate>/src/**/*.rs``; integration tests,
benches and vendored shims are not counted. Every crate under ``crates/``
is printed, one ``<crate> <lines>`` row each, then the ``revsim+analysis``
sum. Reporting only: the exit status is always 0.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEST_GATE = re.compile(r"^\s*#\[cfg\((test\)|all\(test)")


def non_test_lines(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if TEST_GATE.match(line):
                break
            n += 1
    return n


def crate_lines(crate):
    src = ROOT / "crates" / crate / "src"
    return sum(non_test_lines(p) for p in sorted(src.rglob("*.rs")))


def main():
    crates = sorted(
        p.name for p in (ROOT / "crates").iterdir() if (p / "src").is_dir()
    )
    counts = {c: crate_lines(c) for c in crates}
    for c in crates:
        print(f"{c} {counts[c]}")
    print(f"revsim+analysis {counts['revsim'] + counts['analysis']}")


if __name__ == "__main__":
    main()
