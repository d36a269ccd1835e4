#!/usr/bin/env python3
"""Knob gate: the `AETHER_*` names the code reads and the names README.md's
knob tables document must be the same set.

Usage (from the repo root): knobs.py

A name the code reads is an `"AETHER_..."` string literal in a `.rs` file
under `crates/`, `tests/` or `examples/`. A documented name is one in
backticks in the first cell of a README table row. An undocumented knob is
one nobody can find; a documented knob nothing reads is a promise the
binaries do not keep.
"""

import pathlib
import re
import sys

LITERAL = re.compile(r'"(AETHER_[A-Z0-9_]+)"')
NAME = re.compile(r"`(AETHER_[A-Z0-9_]+)`")
README = "README.md"
SOURCES = ["crates", "tests", "examples"]


def read_by_code():
    names = {}
    for d in SOURCES:
        for path in sorted(pathlib.Path(d).rglob("*.rs")):
            for name in LITERAL.findall(path.read_text()):
                names.setdefault(name, str(path))
    return names


def documented():
    names = set()
    for line in pathlib.Path(README).read_text().splitlines():
        if line.startswith("|"):
            names.update(NAME.findall(line.split("|")[1]))
    return names


def main():
    code = read_by_code()
    docs = documented()
    for name in sorted(set(code) - docs):
        print(f"::error::knobs: {code[name]} reads {name}, which no {README} knob table names")
    for name in sorted(docs - set(code)):
        print(f"::error::knobs: {README} documents {name}, which no code reads")
    if set(code) != docs:
        return 1
    print(f"knobs: {len(docs)} AETHER_* names, every one read by code and documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
