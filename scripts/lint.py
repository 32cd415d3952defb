#!/usr/bin/env python3
"""Determinism and hygiene linter for the esh source tree.

The simulator's contract is that a run is a pure function of its inputs and
seeds: the same configuration must produce byte-identical results on every
machine and in every build mode.  This linter rejects the constructs that
historically break that contract:

  random-device        std::random_device (non-seeded entropy)
  libc-rand            rand()/srand() (global hidden state, impl-defined)
  wall-clock           time(), gettimeofday, clock_gettime, localtime/gmtime
  chrono-clock         std::chrono::{system,steady,high_resolution}_clock
                       (wall/monotonic time leaking into simulated time)
  unordered-iteration  range-for over a std::unordered_* container whose
                       visit order feeds an outcome (use esh::sorted_keys)
  pointer-keyed        std::(unordered_)map/set keyed by a raw pointer
                       (iteration order = allocation order = nondeterminism)
  unseeded-rng         std::mt19937 / default_random_engine / minstd_rand
                       and friends: retry jitter and backoff randomness must
                       come from an esh::SplitMix64/esh::Rng seeded from the
                       configuration, or two runs retransmit differently
  wall-clock-sleep     sleep_for/sleep_until/usleep/nanosleep: real-time
                       waits (e.g. retry timeouts) stall the host instead of
                       the simulation; schedule a sim::Simulator timer

plus hygiene rules that keep the checked-invariants and clang-tidy builds
honest:

  include-guard        headers must use #pragma once
  iostream-in-header   <iostream> must not be included from a header
  using-namespace      `using namespace` at file scope is banned
  self-include-first   a .cpp's first include is its own header
  invariant-catalog    the DESIGN.md §3 invariant table and the
                       ESH_INVARIANT / ESH_PRECONDITION /
                       ESH_STATE_MACHINE_ASSERT sites in src/ must agree in
                       both directions: a catalog row naming no site is
                       stale, a site with no catalog row is undocumented,
                       and a row packing several names into one cell hides
                       both checks

A finding can be waived in place with an escape comment carrying a reason,
on the offending line or the line above:

    // lint:allow(unordered-iteration): order-free sum

An escape without a rule name or without a non-empty reason is itself an
error, as is an escape that no finding matches (stale allows rot).

Usage: scripts/lint.py [--root DIR] [--quiet]
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

HEADER_EXTS = {".hpp", ".h"}
SOURCE_EXTS = {".cpp", ".cc"} | HEADER_EXTS

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)\s*:\s*(\S.*)?$")
ALLOW_LOOSE_RE = re.compile(r"lint:allow")

# ---- simple substring / regex rules -----------------------------------------

PATTERN_RULES = [
    ("random-device", re.compile(r"\bstd\s*::\s*random_device\b"),
     "std::random_device draws real entropy; seed esh::SplitMix64 instead"),
    ("libc-rand", re.compile(r"\b(?:s?rand)\s*\("),
     "rand()/srand() use hidden global state; use esh::SplitMix64"),
    ("wall-clock",
     re.compile(r"\b(?:time|gettimeofday|clock_gettime|localtime|gmtime)\s*\("),
     "wall-clock reads differ per run; derive time from sim::Simulator"),
    ("chrono-clock",
     re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "chrono clocks leak host time into the simulation; use SimTime"),
    ("pointer-keyed",
     re.compile(r"\b(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?"
                r"[A-Za-z_][\w:]*\s*\*"),
     "pointer keys order by allocation address; key by a stable id"),
    ("unseeded-rng",
     re.compile(r"\bstd\s*::\s*(?:mt19937(?:_64)?|default_random_engine|"
                r"minstd_rand0?|ranlux(?:24|48)(?:_base)?|knuth_b)\b"),
     "std <random> engines hide their seeding discipline; draw retry "
     "jitter/backoff from an esh::SplitMix64 seeded by the configuration"),
    ("wall-clock-sleep",
     re.compile(r"\b(?:sleep_for|sleep_until|usleep|nanosleep|"
                r"this_thread\s*::\s*yield)\s*\("),
     "real-time waits stall the host, not the simulation; retry/backoff "
     "timeouts must be sim::Simulator timers"),
    ("using-namespace", re.compile(r"^\s*using\s+namespace\s"),
     "file-scope using-directives leak and invite ADL surprises"),
]

# Identifier conventions that make the unordered-iteration heuristic sound:
# a range-for target resolves to its last path component (after ., ->, ::).
FOR_RANGE_RE = re.compile(r"\bfor\s*\([^;)]*?:\s*\*?&?\s*([A-Za-z_][\w.>:\-]*)\s*\)")
UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;(){}]*>\s*"
    r"(?:&\s*)?([A-Za-z_]\w*)\s*(?:;|=|\{|$)")


def last_component(expr: str) -> str:
    for sep in ("->", ".", "::"):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    return expr.strip()


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of string/char literals and // comments so rule
    regexes do not fire on prose.  Block comments are handled line-locally,
    which is enough for this codebase's style."""
    out = []
    i, n = 0, len(line)
    in_str = in_chr = False
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_str = False
            i += 1
            continue
        if in_chr:
            if c == "\\":
                i += 2
                continue
            if c == "'":
                in_chr = False
            i += 1
            continue
        if c == '"':
            in_str = True
            i += 1
            continue
        if c == "'" and i > 0 and (line[i - 1].isalnum() or line[i - 1] == "_"):
            # digit separator (1'000'000), not a char literal
            out.append(c)
            i += 1
            continue
        if c == "'":
            in_chr = True
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def collect_unordered_names(files: list[Path]) -> dict[Path, set[str]]:
    """Per-directory table of identifiers declared with a std::unordered_*
    type.  Cross-file within a directory on purpose: members are declared in
    headers but iterated in the matching .cpp next to them.  Not global —
    an unrelated subsystem reusing the name for a vector must not be
    flagged."""
    names: dict[Path, set[str]] = {}
    for path in files:
        bucket = names.setdefault(path.parent, set())
        for raw in path.read_text(encoding="utf-8").splitlines():
            code = strip_comments_and_strings(raw)
            for m in UNORDERED_DECL_RE.finditer(code):
                bucket.add(m.group(1))
    return names


def lint_file(path: Path, unordered_names: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    is_header = path.suffix in HEADER_EXTS

    # allows[line_no] = (rule, reason, consumed)
    allows: dict[int, list] = {}
    for idx, raw in enumerate(lines, start=1):
        if ALLOW_LOOSE_RE.search(raw):
            m = ALLOW_RE.search(raw)
            if not m:
                findings.append(Finding(
                    path, idx, "bad-allow",
                    "malformed escape; use // lint:allow(<rule>): <reason>"))
                continue
            rule, reason = m.group(1), m.group(2)
            if not reason:
                findings.append(Finding(
                    path, idx, "bad-allow",
                    f"lint:allow({rule}) must carry a non-empty reason"))
                continue
            allows[idx] = [rule, reason, False]

    def comment_only(line_no: int) -> bool:
        if not 1 <= line_no <= len(lines):
            return False
        stripped = lines[line_no - 1].strip()
        return stripped.startswith("//") or not stripped

    def allowed(line_no: int, rule: str) -> bool:
        # An escape covers its own line, or — when written as a comment —
        # the next code line after the comment block it belongs to.
        candidate = line_no
        while candidate >= 1:
            entry = allows.get(candidate)
            if entry and entry[0] == rule:
                entry[2] = True
                return True
            candidate -= 1
            if not comment_only(candidate):
                return False
        return False

    def report(line_no: int, rule: str, message: str) -> None:
        if not allowed(line_no, rule):
            findings.append(Finding(path, line_no, rule, message))

    if is_header and "#pragma once" not in text:
        findings.append(Finding(path, 1, "include-guard",
                                "header is missing #pragma once"))

    first_include: str | None = None
    for idx, raw in enumerate(lines, start=1):
        # Includes are matched on the raw line: the quoted form would be
        # eaten by the string-literal stripper below.
        inc = re.match(r'\s*#\s*include\s+([<"][^">]+[">])', raw)
        code = strip_comments_and_strings(raw)
        if not code.strip() and not inc:
            continue

        if inc:
            target = inc.group(1)
            if first_include is None:
                first_include = target
            if is_header and target == "<iostream>":
                report(idx, "iostream-in-header",
                       "<iostream> in a header drags iostream statics into "
                       "every TU; include it in the one .cpp that prints")
            continue

        for rule, pattern, message in PATTERN_RULES:
            if pattern.search(code):
                report(idx, rule, message)

        for m in FOR_RANGE_RE.finditer(code):
            name = last_component(m.group(1))
            if name in unordered_names:
                report(idx, "unordered-iteration",
                       f"range-for over unordered container '{name}': visit "
                       "order is hash-table layout; iterate "
                       "esh::sorted_keys(...) or justify with lint:allow")

    if (path.suffix in {".cpp", ".cc"} and first_include is not None
            and not first_include.startswith('"')):
        report(1, "self-include-first",
               f"first include is {first_include}; a .cpp must include its "
               "own header first to prove the header is self-contained")

    for line_no, (rule, _reason, consumed) in sorted(allows.items()):
        if not consumed:
            findings.append(Finding(
                path, line_no, "stale-allow",
                f"lint:allow({rule}) matches no finding; delete it"))

    return findings


# ---- invariant catalog cross-check ------------------------------------------

# Contract sites span lines (clang-format wraps the macro arguments), so the
# subsystem/name pair is matched over whole-file text, \s crossing newlines.
SITE_RE = re.compile(
    r'\bESH_(?:INVARIANT|PRECONDITION|STATE_MACHINE_ASSERT)\s*\(\s*'
    r'"([a-z]+)"\s*,\s*"([a-z0-9-]+)"')
CATALOG_HEADER = "### Invariant catalog"
CATALOG_ROW_RE = re.compile(r"^\|\s*(.*?)\s*\|")
CATALOG_NAME_RE = re.compile(r"^`([a-z]+/[a-z0-9-]+)`$")


def lint_invariant_catalog(repo: Path, files: list[Path]) -> list[Finding]:
    """Bidirectional check of DESIGN.md §3's invariant table against the
    contract sites: stale rows, undocumented sites, and rows that combine
    several invariants into one cell are all findings."""
    design = repo / "DESIGN.md"
    if not design.is_file():
        return [Finding(design, 1, "invariant-catalog",
                        "DESIGN.md not found; the invariant catalog is the "
                        "documented contract surface")]
    findings: list[Finding] = []

    site_names: dict[str, tuple[Path, int]] = {}
    for path in files:
        text = path.read_text(encoding="utf-8")
        for m in SITE_RE.finditer(text):
            qualified = f"{m.group(1)}/{m.group(2)}"
            line = text.count("\n", 0, m.start()) + 1
            site_names.setdefault(qualified, (path, line))

    catalog: dict[str, int] = {}
    lines = design.read_text(encoding="utf-8").splitlines()
    header_line = None
    in_catalog = False
    for idx, raw in enumerate(lines, start=1):
        if raw.startswith(CATALOG_HEADER):
            in_catalog = True
            header_line = idx
            continue
        if in_catalog and raw.startswith("## "):
            break
        if not in_catalog:
            continue
        row = CATALOG_ROW_RE.match(raw)
        if not row:
            continue
        cell = row.group(1)
        if not cell or cell.startswith("---") or cell == "Invariant":
            continue
        m = CATALOG_NAME_RE.match(cell)
        if not m:
            findings.append(Finding(
                design, idx, "invariant-catalog",
                f"catalog row cell '{cell}' is not a single "
                "`subsystem/name`; one invariant per row so each can be "
                "cross-checked against its site"))
            continue
        catalog[m.group(1)] = idx

    if header_line is None:
        return [Finding(design, 1, "invariant-catalog",
                        f"'{CATALOG_HEADER}' section not found in DESIGN.md")]

    for name, row_line in sorted(catalog.items()):
        if name not in site_names:
            findings.append(Finding(
                design, row_line, "invariant-catalog",
                f"catalog row `{name}` names no ESH_* site in src/ "
                "(renamed or removed invariant; update the row)"))
    for name, (path, line) in sorted(site_names.items()):
        if name not in catalog:
            findings.append(Finding(
                path, line, "invariant-catalog",
                f"ESH_* site `{name}` has no row in DESIGN.md's invariant "
                "catalog; document it"))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="directory to lint (default: <repo>/src)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the success line")
    args = parser.parse_args()

    repo = Path(__file__).resolve().parent.parent
    root = Path(args.root).resolve() if args.root else repo / "src"
    if not root.is_dir():
        print(f"lint.py: no such directory: {root}", file=sys.stderr)
        return 2

    files = sorted(p for p in root.rglob("*") if p.suffix in SOURCE_EXTS)
    if not files:
        print(f"lint.py: no C++ sources under {root}", file=sys.stderr)
        return 2

    unordered_names = collect_unordered_names(files)
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path, unordered_names.get(path.parent, set())))
    if root == repo / "src":
        findings.extend(lint_invariant_catalog(repo, files))

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint.py: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        tracked = sum(len(v) for v in unordered_names.values())
        print(f"lint.py: {len(files)} files clean "
              f"({tracked} unordered containers tracked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
