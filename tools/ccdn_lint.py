#!/usr/bin/env python3
"""ccdn-lint — AST-level determinism lint for the scheduler codebase.

The simulator's cross-thread digest check (ScheduleAuditTest.
SlotDigestsIdenticalAcrossThreadCounts) only proves determinism for the
paths it runs. This lint closes the gap statically: it matches the hazard
constructs themselves and is silenced per SITE by a justification pragma:

    // ccdn-lint: allow(<check-id>[, <check-id>...]) -- <why it is safe>

placed on the offending line or alone on the line directly above it. A
pragma without a justification, with an unknown check id, or covering a
line that no longer trips its check is itself an error, so justifications
cannot rot.

Checks (ids are stable; fixtures under tests/lint/fixtures pin them):

  unordered-iteration   range-for or iterator loop over a
                        std::unordered_{map,set,multimap,multiset}: the
                        visit order is hash/address-dependent, so anything
                        order-sensitive downstream drifts between runs.
  double-accumulation   `+=`/`-=` on a double/float accumulator inside a
                        loop over an unordered container: fp addition is
                        not associative, so even an order-insensitive
                        *algorithm* produces run-dependent bits.
  unordered-container   any std::unordered_* spelling, declarations
                        included, so that a new file using one gets audited
                        at all (the iteration sites are pinned above).
  cost-accumulation     `<x>cost +=` or `+= ... cost(e)`: a double cost
                        sum is deterministic only in a fixed order, so that
                        ordering argument gets written down.
  nondet-random         rand()/srand()/drand48()/lrand48()/random() or
                        std::random_device — randomness that bypasses the
                        seeded, splittable util/rng.h.
  nondet-clock          wall/steady clock reads (<any>_clock::now, time(),
                        gettimeofday, clock_gettime, clock()): scheduling
                        decisions keyed on real time cannot replay.
  pragma                pragma grammar violations: malformed allow-list,
                        unknown check id, missing `-- <why>` justification,
                        or a stale pragma whose line no longer trips the
                        allowed check.

The two token checks (unordered-container, cost-accumulation) match
spellings on the comment- and literal-stripped code in both engines. A
hazard no line pragma fits (a container declared in a header, a
fixed-order accumulator) is excused per file in WHITELIST, with the audit's
justification. When the whole tree is linted, an entry whose file is gone
or no longer contains its hazard is itself a finding.

Engines: with the libclang python bindings installed (`import clang.cindex`)
the checks run on the real AST of every TU in compile_commands.json —
callee resolution instead of token spelling, canonical types instead of
declaration text. Without them (this repo's pinned container has no
libclang), a built-in syntax engine approximates the same matches with a
comment/string-stripping tokenizer, per-file declaration type tables, and
loop-extent tracking; it is what CI falls back to and what the fixture
tests pin. `--engine ast|syntax|auto` selects explicitly.

Usage:
    python3 tools/ccdn_lint.py                      # lint src/tools/bench/examples
    python3 tools/ccdn_lint.py --files a.cc b.h     # lint specific files
    python3 tools/ccdn_lint.py --compile-commands build/compile_commands.json

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import bisect
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCAN_DIRS = ("src", "tools", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

CHECK_IDS = (
    "unordered-iteration",
    "double-accumulation",
    "unordered-container",
    "cost-accumulation",
    "nondet-random",
    "nondet-clock",
    "pragma",
)

CHECK_HELP = {
    "unordered-iteration":
        "iteration order over unordered containers is hash/address-"
        "dependent; sort with full tie-breaks or use an ordered container",
    "double-accumulation":
        "double accumulation in unordered iteration order is doubly "
        "nondeterministic (visit order AND fp non-associativity); "
        "accumulate int64 or iterate a sorted view",
    "unordered-container":
        "unordered container iteration order is address-dependent; sort "
        "results with full tie-breaks or use an ordered container",
    "cost-accumulation":
        "double cost accumulation is order-sensitive (fp addition is not "
        "associative); fix the accumulation order and whitelist it with "
        "the ordering argument",
    "nondet-random":
        "nondeterministic randomness; all draws must flow through the "
        "seeded util/rng.h",
    "nondet-clock":
        "wall-clock reads make runs unreplayable; derive time from the "
        "trace (timing display via util/stopwatch.h is pragma-justified)",
    "pragma":
        "ccdn-lint pragma grammar: "
        "`// ccdn-lint: allow(<check>) -- <why>`",
}


@dataclass
class Finding:
    path: Path
    line: int
    check: str
    message: str


@dataclass
class Pragma:
    line: int            # line the pragma comment sits on
    target: int          # code line it covers
    checks: list[str] = field(default_factory=list)
    justification: str = ""
    malformed: str = ""  # non-empty: grammar violation message
    used: bool = False


# --- shared: comment/string stripping + pragma collection -------------------

PRAGMA_RE = re.compile(
    r"ccdn-lint:\s*(?P<verb>\w+)\s*(?:\((?P<args>[^)]*)\))?"
    r"(?:\s*--\s*(?P<why>\S.*))?")


def strip_code(text: str) -> tuple[list[str], list[tuple[int, str, bool]]]:
    """Return (code lines with comments/literals blanked, comment spans).

    Comment spans are (line number, comment text, line_has_code) tuples used
    for pragma collection. Literal contents are replaced with spaces so
    column positions survive.
    """
    code = []
    comments = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    out = []
    comment_buf = []
    comment_line_start = 1
    line = 1
    line_had_code = False
    raw_delim = ""

    def flush_line():
        nonlocal out, line_had_code
        code.append("".join(out))
        out = []
        line_had_code = False

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            if state == "line_comment":
                comments.append((comment_line_start, "".join(comment_buf),
                                 line_had_code))
                comment_buf = []
                state = "code"
            elif state == "block_comment":
                comments.append((comment_line_start, "".join(comment_buf),
                                 line_had_code))
                comment_buf = []
                comment_line_start = line + 1
            flush_line()
            line += 1
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_line_start = line
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                comment_line_start = line
                i += 2
                continue
            if c == "R" and nxt == '"' and not (i > 0 and
                                                (text[i - 1].isalnum() or
                                                 text[i - 1] == "_")):
                # Raw string literal R"delim(...)delim"
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append('""')
                    line_had_code = True
                    i += m.end()
                    continue
            if c == '"':
                state = "string"
                out.append('"')
                line_had_code = True
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                line_had_code = True
                i += 1
                continue
            out.append(c)
            if not c.isspace():
                line_had_code = True
            i += 1
            continue
        if state == "line_comment":
            comment_buf.append(c)
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                comments.append((comment_line_start, "".join(comment_buf),
                                 line_had_code))
                comment_buf = []
                state = "code"
                i += 2
                continue
            comment_buf.append(c)
            i += 1
            continue
        if state == "string":
            if c == "\\":
                i += 2
                continue
            if c == '"':
                out.append('"')
                state = "code"
            i += 1
            continue
        if state == "char":
            if c == "\\":
                i += 2
                continue
            if c == "'":
                out.append("'")
                state = "code"
            i += 1
            continue
        if state == "raw":
            if text.startswith(raw_delim, i):
                i += len(raw_delim)
                state = "code"
            else:
                if c == "\n":  # unreachable (handled above) but keep safe
                    flush_line()
                    line += 1
                i += 1
            continue
    if state in ("line_comment", "block_comment") and comment_buf:
        comments.append((comment_line_start, "".join(comment_buf),
                         line_had_code))
    flush_line()
    return code, comments


def collect_pragmas(comments: list[tuple[int, str, bool]],
                    code_lines: list[str]) -> list[Pragma]:
    pragmas = []
    for line, comment, line_has_code in comments:
        if "ccdn-lint" not in comment:
            continue
        m = PRAGMA_RE.search(comment)
        pragma = Pragma(line=line, target=line)
        if m is None or m.group("verb") != "allow":
            pragma.malformed = "unparseable pragma (expected "\
                "`ccdn-lint: allow(<check>) -- <why>`)"
            pragmas.append(pragma)
            continue
        args = m.group("args")
        why = m.group("why")
        checks = [a.strip() for a in (args or "").split(",") if a.strip()]
        unknown = [c for c in checks if c not in CHECK_IDS or c == "pragma"]
        if not checks:
            pragma.malformed = "allow() names no check"
        elif unknown:
            pragma.malformed = (
                f"unknown check id(s) {', '.join(unknown)} "
                f"(known: {', '.join(c for c in CHECK_IDS if c != 'pragma')})")
        elif not why or not why.strip():
            pragma.malformed = (
                "missing justification (`-- <why this site is safe>`)")
        pragma.checks = checks
        pragma.justification = (why or "").strip()
        if not line_has_code:
            # Standalone pragma: covers the next line that has code.
            target = line + 1
            while (target <= len(code_lines) and
                   not code_lines[target - 1].strip()):
                target += 1
            pragma.target = target
        pragmas.append(pragma)
    return pragmas


# --- token checks (both engines) + file whitelist ---------------------------

TOKEN_CHECKS = {
    "unordered-container":
        re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b"),
    "cost-accumulation":
        re.compile(r"\b\w*cost\s*\+="
                   r"|\+=\s*[^;]*(?:\bcost\s*\(|\.\s*cost\b)"),
}

# (relative file, check id) -> justification from the audit that admitted
# it. Only for token hazards a line pragma cannot carry: container
# DECLARATIONS (the iteration sites, where the risk lives, are pinned
# per-site by pragmas) and fixed-order double accumulators.
WHITELIST = {
    ("src/model/trace_stats.cc", "unordered-container"):
        "dedup/count scratch; the iteration site is ccdn-lint-pragma'd "
        "(extract-then-sort)",
    ("src/cache/policies.h", "unordered-container"):
        "O(1) lookup index into an ordered std::list; eviction order comes "
        "from the list, never from map iteration",
    ("src/sim/measurement.cc", "unordered-container"):
        "per-hotspot first-seen dedup; the iteration site is "
        "ccdn-lint-pragma'd (extracted ids sorted before use)",
    ("src/predict/demand_predictor.h", "unordered-container"):
        "per-video series state queried by key; iteration feeds an "
        "order-insensitive aggregate",
    ("src/core/random_scheme.cc", "unordered-container"):
        "neighbourhood demand merge; the iteration site is "
        "ccdn-lint-pragma'd (top_k_videos sorts with full tie-breaks)",
    ("src/flow/mcmf.cc", "cost-accumulation"):
        "path_cost sums a parent-chain walk (fixed order per augmentation) "
        "and result.cost sums augmentations in the order the solver finds "
        "them; both orders are functions of the input graph alone",
}


def repo_relative(path: Path) -> str:
    try:
        return path.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def token_scan(path: Path, code_lines: list[str]) -> list[Finding]:
    rel = repo_relative(path)
    findings = []
    for check, pattern in TOKEN_CHECKS.items():
        if (rel, check) in WHITELIST:
            continue
        for lineno, code in enumerate(code_lines, start=1):
            if pattern.search(code):
                findings.append(Finding(path, lineno, check,
                                        CHECK_HELP[check]))
    return findings


def stale_whitelist_entries() -> list[Finding]:
    """Entries whose file is gone OR whose hazard vanished from the file:
    either way the entry would silently excuse a future reintroduction."""
    stale = []
    for rel, check in sorted(WHITELIST):
        path = REPO_ROOT / rel
        if not path.is_file():
            why = "file no longer exists"
        elif not any(TOKEN_CHECKS[check].search(code) for code in strip_code(
                path.read_text(encoding="utf-8", errors="replace"))[0]):
            why = "file no longer contains this hazard"
        else:
            continue
        stale.append(Finding(path, 0, check,
                             f"stale whitelist entry: {why} — delete it"))
    return stale


# --- syntax engine ----------------------------------------------------------

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
RANDOM_RES = (
    re.compile(r"(?<![\w:.])(?:std\s*::\s*)?"
               r"(?:s?rand|d?rand48|lrand48|mrand48)\s*\("),
    re.compile(r"(?<![\w:.])random\s*\(\s*\)"),
    re.compile(r"\brandom_device\b"),
)
CLOCK_RES = (
    re.compile(r"\b[A-Za-z_]\w*\s*::\s*now\s*\("),
    re.compile(r"(?<![\w:.])(?:std\s*::\s*)?"
               r"(?:gettimeofday|clock_gettime|clock)\s*\("),
    re.compile(r"(?<![\w:.>])(?:std\s*::\s*)?"
               r"time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
)
DOUBLE_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:[=;,){]|$)")
ACCUM_RE = re.compile(
    r"(?P<lhs>[\w\.\[\]\(\)>-]*?(?P<name>\w+)(?:\s*\[[^\]]*\])?)\s*"
    r"(?P<op>\+=|-=)(?!=)")
ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
TYPEDEF_RE = re.compile(r"\btypedef\s+([^;]+?)\s+(\w+)\s*;")


def angle_match(s: str, start: int) -> int:
    """Index just past the `>` matching the `<` at s[start], or -1."""
    depth = 0
    i = start
    while i < len(s):
        c = s[i]
        if c == "<":
            depth += 1
        elif c == ">":
            # Ignore `->` and `>>` handled naturally (two closes).
            if i > 0 and s[i - 1] == "-":
                i += 1
                continue
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def unwrap_vectors(type_str: str) -> tuple[str, int]:
    """Strip std::vector<...>/std::array<...> wrappers; return (inner, depth)."""
    depth = 0
    s = type_str.strip()
    while True:
        m = re.match(r"(?:const\s+)?(?:std::)?(?:vector|array|span)\s*<", s)
        if not m:
            return s, depth
        end = angle_match(s, m.end() - 1)
        if end < 0:
            return s, depth
        s = s[m.end():end - 1].strip()
        # array<T, N>: drop the extent argument.
        comma = find_top_level_comma(s)
        if comma >= 0 and re.fullmatch(r"[\w\s\+\*\-/]+", s[comma + 1:]):
            s = s[:comma].strip()
        depth += 1


def find_top_level_comma(s: str) -> int:
    depth = 0
    for i, c in enumerate(s):
        if c == "<":
            depth += 1
        elif c == ">":
            if i > 0 and s[i - 1] == "-":
                continue
            depth -= 1
        elif c == "," and depth == 0:
            return i
    return -1


def is_unordered_type(type_str: str, aliases: dict[str, tuple[bool, int]],
                      subscripts: int = 0) -> bool:
    """True if `type_str`, after `subscripts` [] applications, is unordered."""
    inner, depth = unwrap_vectors(type_str)
    if depth < subscripts:
        return False
    if subscripts < depth:
        # Still wrapped in a vector after subscripting: iterating it visits
        # vector elements in index order — deterministic.
        return False
    base = re.sub(r"^(?:const\s+)?(?:std::)?", "", inner)
    if UNORDERED_RE.match(base):
        return True
    name = re.match(r"(\w+)", base)
    if name and name.group(1) in aliases:
        al_unordered, al_depth = aliases[name.group(1)]
        return al_unordered and al_depth == 0
    return False


class FileModel:
    """Per-file declaration tables for the syntax engine."""

    def __init__(self, code_lines: list[str]):
        self.code_lines = code_lines
        joined = "\n".join(code_lines)
        flat = re.sub(r"\s+", " ", joined)
        # Alias table: name -> (is_unordered, vector_depth).
        self.aliases: dict[str, tuple[bool, int]] = {}
        for m in ALIAS_RE.finditer(flat):
            inner, depth = unwrap_vectors(m.group(2))
            self.aliases[m.group(1)] = (
                bool(UNORDERED_RE.search(inner)) and
                is_unordered_type(inner, {}), depth)
        for m in TYPEDEF_RE.finditer(flat):
            inner, depth = unwrap_vectors(m.group(1))
            self.aliases[m.group(2)] = (is_unordered_type(inner, {}), depth)
        # Variable table: name -> declared type string. Declarations are
        # matched as `<type-with-angles> name [;,({=[]` where the type
        # mentions an unordered container or alias — everything else can
        # stay untyped, the checks only need "is it unordered".
        self.var_types: dict[str, str] = {}
        decl_re = re.compile(
            r"((?:const\s+)?(?:std::)?[\w:]+\s*<)")
        pos = 0
        while True:
            m = decl_re.search(flat, pos)
            if not m:
                break
            end = angle_match(flat, m.end() - 1)
            if end < 0:
                pos = m.end()
                continue
            type_str = flat[m.start():end]
            rest = flat[end:]
            # Terminators include `)` and `,` so function parameters
            # (`const unordered_map<K, V>& m)`) land in the table too.
            var = re.match(r"[&\s]*(\w+)\s*[;,=({\[)]", rest)
            if var and (UNORDERED_RE.search(type_str) or
                        re.search(r"\b(" + "|".join(map(re.escape,
                                                        self.aliases)) +
                                  r")\b", type_str)
                        if self.aliases else
                        UNORDERED_RE.search(type_str)):
                self.var_types[var.group(1)] = type_str
            pos = end
        # Pointer/ref declarations to unordered (rare): `unordered_map<..>* p`
        # are covered by the same scan (the `*` lands between type and name
        # and the var regex tolerates `&`/space but not `*`; extend):
        for m in decl_re.finditer(flat):
            end = angle_match(flat, m.end() - 1)
            if end < 0:
                continue
            rest = flat[end:]
            var = re.match(r"\s*[*&]+\s*(\w+)\s*[;,=({\[)]", rest)
            if var and UNORDERED_RE.search(flat[m.start():end]):
                self.var_types[var.group(1)] = flat[m.start():end]

    def expr_is_unordered(self, expr: str) -> bool:
        expr = expr.strip()
        # Strip trailing calls that return views of the same container.
        expr = re.sub(r"\.(?:items|values|keys)\(\)$", "", expr)
        if UNORDERED_RE.search(expr):
            return True
        # `*ptr` / `(*ptr)` dereference.
        deref = re.match(r"^\(?\*\s*(\w+)\)?$", expr)
        if deref:
            expr = deref.group(1)
        # name
        m = re.fullmatch(r"(\w+)", expr)
        if m:
            t = self.var_types.get(m.group(1))
            if t is not None and is_unordered_type(t, self.aliases):
                return True
            if m.group(1) in self.aliases:
                return False
            return False
        # name[...] (possibly repeated)
        m = re.fullmatch(r"(\w+)((?:\s*\[[^\]]*\])+)", expr)
        if m:
            t = self.var_types.get(m.group(1))
            if t is None:
                return False
            subs = m.group(2).count("[")
            return is_unordered_type(t, self.aliases, subscripts=subs)
        # obj.member / obj->member: fall back to the member name.
        m = re.fullmatch(r"[\w\.\[\]>-]+[\.>-](\w+)(\(\))?", expr)
        if m and not m.group(2):
            t = self.var_types.get(m.group(1))
            if t is not None:
                return is_unordered_type(t, self.aliases)
        return False


@dataclass
class LoopRegion:
    header_line: int
    begin: int   # first body line
    end: int     # last body line (inclusive)
    unordered: bool


def find_loops(code_lines: list[str], model: FileModel) -> list[LoopRegion]:
    text = "\n".join(code_lines)
    line_starts = [0]
    for ln in code_lines:
        line_starts.append(line_starts[-1] + len(ln) + 1)

    def line_of(offset: int) -> int:
        return bisect.bisect_right(line_starts, offset)

    loops = []
    for m in re.finditer(r"\b(for|while)\s*\(", text):
        open_paren = m.end() - 1
        depth = 0
        i = open_paren
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= len(text):
            continue
        header = text[open_paren + 1:i]
        unordered = False
        # Range-for: split on the single top-level `:` (not `::`).
        colon = -1
        pd = 0
        for j, c in enumerate(header):
            if c in "(<[":
                pd += 1
            elif c in ")>]":
                pd -= 1
            elif (c == ":" and pd == 0 and
                  (j + 1 >= len(header) or header[j + 1] != ":") and
                  (j == 0 or header[j - 1] != ":")):
                colon = j
                break
        if m.group(1) == "for" and colon >= 0:
            unordered = model.expr_is_unordered(header[colon + 1:])
        else:
            # Iterator loop: `x.begin()` / `x->begin()` in the header.
            it = re.search(r"(\w+(?:\s*\[[^\]]*\])?)\s*(?:\.|->)\s*"
                           r"c?(?:begin|end)\s*\(", header)
            if it:
                unordered = model.expr_is_unordered(it.group(1))
        # Body extent: `{...}` or single statement to `;`.
        j = i + 1
        while j < len(text) and text[j].isspace():
            j += 1
        if j < len(text) and text[j] == "{":
            depth = 0
            k = j
            while k < len(text):
                if text[k] == "{":
                    depth += 1
                elif text[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            body_end = k
        else:
            k = j
            while k < len(text) and text[k] != ";":
                k += 1
            body_end = k
        loops.append(LoopRegion(header_line=line_of(m.start()),
                                begin=line_of(j),
                                end=line_of(body_end),
                                unordered=unordered))
    return loops


def syntax_scan(path: Path, text: str,
                double_idents: set[str]) -> tuple[list[Finding],
                                                  list[Pragma]]:
    code_lines, comments = strip_code(text)
    pragmas = collect_pragmas(comments, code_lines)
    model = FileModel(code_lines)
    loops = find_loops(code_lines, model)
    findings = token_scan(path, code_lines)

    for loop in loops:
        if loop.unordered:
            findings.append(Finding(
                path, loop.header_line, "unordered-iteration",
                "loop iterates an unordered container; "
                + CHECK_HELP["unordered-iteration"]))

    unordered_spans = [(l.begin, l.end) for l in loops if l.unordered]

    def in_unordered_loop(line: int) -> bool:
        return any(b <= line <= e for b, e in unordered_spans)

    for lineno, code in enumerate(code_lines, start=1):
        for m in ACCUM_RE.finditer(code):
            if not in_unordered_loop(lineno):
                continue
            if m.group("name") in double_idents:
                findings.append(Finding(
                    path, lineno, "double-accumulation",
                    f"`{m.group('lhs').strip()} {m.group('op')}` on a "
                    "double inside unordered iteration; "
                    + CHECK_HELP["double-accumulation"]))
        for pattern in RANDOM_RES:
            if pattern.search(code):
                findings.append(Finding(
                    path, lineno, "nondet-random",
                    CHECK_HELP["nondet-random"]))
                break
        for pattern in CLOCK_RES:
            if pattern.search(code):
                findings.append(Finding(
                    path, lineno, "nondet-clock",
                    CHECK_HELP["nondet-clock"]))
                break
    return findings, pragmas


def collect_double_idents(paths: list[Path]) -> set[str]:
    """Identifiers declared double/float anywhere in the scanned set (plus
    headers they share); the accumulation check keys on the LHS name."""
    idents: set[str] = set()
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        code_lines, _ = strip_code(text)
        flat = "\n".join(code_lines)
        for m in DOUBLE_DECL_RE.finditer(flat):
            idents.add(m.group(1))
    return idents


# --- AST engine (libclang; optional) ----------------------------------------

def ast_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def ast_scan_tu(tu_path: Path, args: list[str],
                repo_files: set[Path]) -> dict[Path, list[Finding]]:
    """Parse one TU and return findings per repo file touched."""
    from clang.cindex import CursorKind, Index, TranslationUnit

    index = Index.create()
    tu = index.parse(str(tu_path), args=args,
                     options=TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0)
    findings: dict[Path, list[Finding]] = {}

    def file_of(cursor) -> Path | None:
        loc = cursor.location
        if loc.file is None:
            return None
        p = Path(loc.file.name).resolve()
        return p if p in repo_files else None

    def add(cursor, check: str, message: str) -> None:
        p = file_of(cursor)
        if p is None:
            return
        findings.setdefault(p, []).append(
            Finding(p, cursor.location.line, check, message))

    def type_is_unordered(t) -> bool:
        spelling = t.get_canonical().spelling
        return "unordered_map<" in spelling or "unordered_set<" in spelling \
            or "unordered_multimap<" in spelling \
            or "unordered_multiset<" in spelling

    RANDOM_CALLEES = {"rand", "srand", "drand48", "lrand48", "mrand48",
                      "random", "srandom"}
    CLOCK_CALLEES = {"gettimeofday", "clock_gettime", "clock", "time"}

    def header_has_unordered_begin(cursor) -> bool:
        if cursor.kind == CursorKind.CALL_EXPR:
            ref = cursor.referenced
            if ref is not None and ref.spelling in ("begin", "cbegin"):
                parent = ref.semantic_parent
                if parent is not None and \
                        parent.spelling.startswith("unordered_"):
                    return True
        return any(header_has_unordered_begin(k)
                   for k in cursor.get_children())

    def walk(cursor, unordered_loop_depth: int) -> None:
        for child in cursor.get_children():
            depth = unordered_loop_depth
            kind = child.kind
            if kind == CursorKind.CXX_FOR_RANGE_STMT:
                # The range expression is a non-body child whose canonical
                # type names the unordered container (the loop variable's
                # type is the element/pair type, so it never false-positives).
                range_unordered = any(
                    k.kind != CursorKind.COMPOUND_STMT and
                    type_is_unordered(k.type)
                    for k in child.get_children())
                if range_unordered:
                    add(child, "unordered-iteration",
                        CHECK_HELP["unordered-iteration"])
                    depth += 1
            elif kind == CursorKind.CALL_EXPR:
                ref = child.referenced
                name = ref.spelling if ref is not None else child.spelling
                if name in RANDOM_CALLEES:
                    add(child, "nondet-random", CHECK_HELP["nondet-random"])
                elif name in CLOCK_CALLEES:
                    add(child, "nondet-clock", CHECK_HELP["nondet-clock"])
                elif name == "now" and ref is not None:
                    parent = ref.semantic_parent
                    if parent is not None and "clock" in parent.spelling:
                        add(child, "nondet-clock",
                            CHECK_HELP["nondet-clock"])
            elif kind in (CursorKind.FOR_STMT, CursorKind.WHILE_STMT):
                # Explicit-iterator loops: a begin()/cbegin() call on an
                # unordered container anywhere in the loop header (init /
                # condition / increment — everything but the body, which
                # is always the last child).
                kids = list(child.get_children())
                if kids and any(header_has_unordered_begin(k)
                                for k in kids[:-1]):
                    add(child, "unordered-iteration",
                        CHECK_HELP["unordered-iteration"])
                    depth += 1
            elif kind == CursorKind.VAR_DECL:
                if "random_device" in child.type.get_canonical().spelling:
                    add(child, "nondet-random", CHECK_HELP["nondet-random"])
            elif kind == CursorKind.COMPOUND_ASSIGNMENT_OPERATOR:
                if depth > 0:
                    lhs = next(child.get_children(), None)
                    if lhs is not None and lhs.type.get_canonical().spelling \
                            in ("double", "float", "long double"):
                        add(child, "double-accumulation",
                            CHECK_HELP["double-accumulation"])
            walk(child, depth)

    walk(tu.cursor, 0)
    return findings


# --- pragma application -----------------------------------------------------

def apply_pragmas(path: Path, findings: list[Finding],
                  pragmas: list[Pragma]) -> list[Finding]:
    out: list[Finding] = []
    for pragma in pragmas:
        if pragma.malformed:
            out.append(Finding(path, pragma.line, "pragma", pragma.malformed))
    by_line: dict[tuple[int, str], Pragma] = {}
    for pragma in pragmas:
        # Malformed pragmas already errored above; if their allow-list
        # parsed, still let them suppress the underlying finding so a
        # grammar slip reports once (fix the pragma), not twice.
        for check in pragma.checks:
            by_line[(pragma.target, check)] = pragma
    for finding in findings:
        pragma = by_line.get((finding.line, finding.check))
        if pragma is not None:
            pragma.used = True
            continue
        out.append(finding)
    for pragma in pragmas:
        if pragma.malformed or pragma.used:
            continue
        out.append(Finding(
            path, pragma.line, "pragma",
            f"stale pragma: line {pragma.target} no longer trips "
            f"{', '.join(pragma.checks)} — delete the pragma or restore "
            "the justification's subject"))
    return out


# --- driver -----------------------------------------------------------------

def default_files() -> list[Path]:
    files = []
    for scan_dir in DEFAULT_SCAN_DIRS:
        root = REPO_ROOT / scan_dir
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES:
                files.append(path)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", nargs="*", type=Path,
                        help="lint exactly these files (default: "
                             "src/tools/bench/examples)")
    parser.add_argument("--compile-commands", type=Path,
                        help="compile_commands.json for the AST engine")
    parser.add_argument("--engine", choices=("auto", "ast", "syntax"),
                        default="auto")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args()

    if args.list_checks:
        for check in CHECK_IDS:
            print(f"{check}: {CHECK_HELP[check]}")
        return 0

    engine = args.engine
    if engine == "auto":
        engine = "ast" if (ast_available() and args.compile_commands) \
            else "syntax"
    if engine == "ast" and not ast_available():
        print("ccdn-lint: --engine ast requires the libclang python "
              "bindings (python3-clang)", file=sys.stderr)
        return 2

    files = ([p.resolve() for p in args.files] if args.files
             else [p.resolve() for p in default_files()])
    missing = [p for p in files if not p.is_file()]
    if missing:
        for p in missing:
            print(f"ccdn-lint: no such file: {p}", file=sys.stderr)
        return 2

    all_findings: list[Finding] = []

    if engine == "ast":
        if not args.compile_commands or not args.compile_commands.is_file():
            print("ccdn-lint: --engine ast needs --compile-commands",
                  file=sys.stderr)
            return 2
        entries = json.loads(args.compile_commands.read_text())
        repo_files = set(files)
        per_file: dict[Path, list[Finding]] = {}
        seen_tus = set()
        for entry in entries:
            tu = (Path(entry["directory"]) / entry["file"]).resolve()
            if tu in seen_tus:
                continue
            seen_tus.add(tu)
            cmd_args = [a for a in entry["command"].split()[1:]
                        if not a.endswith(str(tu.name)) and a != "-c" and
                        a != "-o" and not a.endswith(".o")]
            for path, found in ast_scan_tu(tu, cmd_args, repo_files).items():
                # Headers appear in many TUs; keep the first parse's result.
                per_file.setdefault(path, found)
        for path in sorted(per_file):
            text = path.read_text(encoding="utf-8", errors="replace")
            code_lines, comments = strip_code(text)
            pragmas = collect_pragmas(comments, code_lines)
            all_findings.extend(apply_pragmas(
                path, per_file[path] + token_scan(path, code_lines), pragmas))
        # Files never reached by any TU (e.g. unreferenced headers) still
        # get the syntax engine so pragma grammar and token checks apply.
        reached = set(per_file)
        leftover = [p for p in files if p not in reached]
        double_idents = collect_double_idents(files)
        for path in leftover:
            text = path.read_text(encoding="utf-8", errors="replace")
            findings, pragmas = syntax_scan(path, text, double_idents)
            all_findings.extend(apply_pragmas(path, findings, pragmas))
    else:
        double_idents = collect_double_idents(files)
        for path in files:
            text = path.read_text(encoding="utf-8", errors="replace")
            findings, pragmas = syntax_scan(path, text, double_idents)
            all_findings.extend(apply_pragmas(path, findings, pragmas))

    if not args.files:
        all_findings.extend(stale_whitelist_entries())

    for finding in sorted(all_findings,
                          key=lambda f: (str(f.path), f.line, f.check)):
        print(f"{repo_relative(finding.path)}:{finding.line}: "
              f"[{finding.check}] {finding.message}")

    if all_findings:
        print(f"\nccdn-lint: {len(all_findings)} finding(s) "
              f"[engine={engine}]. Fix the site or, if an audit shows it "
              "is safe, annotate it with\n"
              "  // ccdn-lint: allow(<check>) -- <why>\n"
              "or, for a token hazard no line pragma fits, add a WHITELIST "
              "entry in tools/ccdn_lint.py.", file=sys.stderr)
        return 1
    print(f"ccdn-lint: clean ({len(files)} files, engine={engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
