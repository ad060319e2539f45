#!/usr/bin/env python3
"""Determinism-hygiene lint for the scheduler codebase (fast regex pre-check).

The simulator's cross-thread digest check (ScheduleAuditTest.
SlotDigestsIdenticalAcrossThreadCounts) only proves determinism for the
paths it runs. Two static tools close the gap:

  * THIS tool: a dependency-free token scan that runs in milliseconds and
    catches hazard spellings anywhere in the tree, including in files no TU
    compiles. It is the pre-check CI runs first.
  * tools/ccdn_lint.py: the authoritative per-SITE check. It matches the
    constructs (loops over unordered containers, double accumulation in
    unordered order, resolved callees) rather than token spellings, and is
    silenced per site by a justification pragma:
        // ccdn-lint: allow(<check>) -- <why>

Hazards scanned here —

  * std::random_device / rand() / srand() / drand48(): nondeterministic
    randomness. All randomness must flow through util/rng.h (seeded,
    splittable).
  * wall-clock reads (std::chrono::*_clock::now, time(), gettimeofday):
    scheduling decisions keyed on real time cannot replay.
  * std::unordered_map / std::unordered_set: iteration order is
    implementation- and address-dependent. ccdn-lint pins the actual
    iteration sites; this scan flags the token so NEW files using unordered
    containers get audited at all.
  * raw double cost accumulation (`*cost += ...` / `+= ... cost(e)`):
    floating-point addition is not associative, so a double accumulator is
    only deterministic if the accumulation ORDER is fixed. ccdn-lint's
    double-accumulation check covers the unordered-order case exactly;
    this scan also flags fixed-order accumulators so their ordering
    argument gets written down (below) when they are introduced.

Suppression, in order of preference:
  1. a `ccdn-lint: allow(<check>)` pragma on the hazard line or in the
     comment block directly above it (shared with ccdn_lint.py — one
     justification serves both tools), or
  2. a WHITELIST entry below, for hazards that are not tied to one line a
     pragma could sit on (declarations, frozen benchmark copies).

Whitelist entries rot-check themselves: an entry whose file no longer
exists, or whose file no longer contains the hazard it excuses, fails the
lint — delete the entry when the hazard goes away.

Run locally with `python3 tools/check_determinism_hygiene.py`; CI runs it
in the static-analysis job before ccdn-lint.

Exit status: 0 clean, 1 unwhitelisted hazards or stale whitelist entries.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tools", "examples", "bench")
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

# hazard id -> (regex, human explanation)
HAZARDS = {
    "random-device": (
        re.compile(r"std::random_device|\brandom_device\b"),
        "std::random_device is nondeterministic; use the seeded util/rng.h",
    ),
    "libc-rand": (
        re.compile(r"(?<![\w:.])s?rand\s*\(|\bdrand48\s*\("),
        "rand()/srand()/drand48() share hidden global state; use util/rng.h",
    ),
    "wall-clock": (
        re.compile(
            r"::now\s*\(\)|\bgettimeofday\s*\(|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
        ),
        "wall-clock reads make runs unreplayable; derive time from the trace",
    ),
    "unordered-container": (
        re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b"),
        "unordered container iteration order is address-dependent; sort "
        "results with full tie-breaks or use an ordered container",
    ),
    "double-cost-accumulation": (
        re.compile(r"\b\w*cost\s*\+=|\+=\s*[^;]*(?:\bcost\s*\(|\.\s*cost\b)"),
        "double cost accumulation is order-sensitive (fp addition is not "
        "associative); fix the accumulation order and whitelist it with "
        "the ordering argument",
    ),
}

# hazard id -> the ccdn-lint check id whose pragma also suppresses it here.
PRAGMA_CHECK_FOR_HAZARD = {
    "random-device": "nondet-random",
    "libc-rand": "nondet-random",
    "wall-clock": "nondet-clock",
    "unordered-container": "unordered-iteration",
    "double-cost-accumulation": "double-accumulation",
}

PRAGMA_RE = re.compile(r"ccdn-lint:\s*allow\(([^)]*)\)")

# (relative file, hazard id) -> justification from the audit that admitted
# it. Only for hazards a line-level pragma cannot carry: container
# DECLARATIONS (the iteration sites, where the risk lives, are pinned
# per-site by ccdn-lint pragmas) and fixed-order double accumulators (which
# ccdn-lint correctly does not flag, so a pragma there would be stale).
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
    ("src/core/virtual_rbcaer_scheme.cc", "unordered-container"):
        "region scratch maps; every iteration site is ccdn-lint-pragma'd "
        "(extract-then-sort with full tie-breaks, or commutative int sums)",
    ("src/core/replication.cc", "unordered-container"):
        "dead-pair membership set used for contains() pruning only; never "
        "iterated",
    ("src/core/random_scheme.cc", "unordered-container"):
        "neighbourhood demand merge; the iteration site is "
        "ccdn-lint-pragma'd (top_k_videos sorts with full tie-breaks)",
    ("src/flow/mcmf.cc", "double-cost-accumulation"):
        "path_cost sums a parent-chain walk (fixed order per augmentation) "
        "and result.cost sums augmentations in the order the solver finds "
        "them; both orders are functions of the input graph alone",
}


def pragma_checks_covering(lines: list[str], lineno: int) -> set[str]:
    """Check ids allowed by a pragma on `lineno` or in the comment block
    directly above it (1-based; mirrors ccdn-lint's coverage rule)."""
    checks: set[str] = set()
    m = PRAGMA_RE.search(lines[lineno - 1])
    if m:
        checks.update(c.strip() for c in m.group(1).split(","))
    i = lineno - 1  # scan the contiguous comment block above
    while i >= 1:
        stripped = lines[i - 1].strip()
        if not stripped.startswith(("//", "*", "/*")) and stripped:
            break
        m = PRAGMA_RE.search(stripped)
        if m:
            checks.update(c.strip() for c in m.group(1).split(","))
        i -= 1
    return checks


def scan_file(path: Path) -> list[tuple[int, str, str]]:
    """Return (line number, hazard id, line text) findings for one file."""
    rel = path.relative_to(REPO_ROOT).as_posix()
    findings = []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"error: cannot read {rel}: {err}", file=sys.stderr)
        sys.exit(1)
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        code = line.split("//", 1)[0]
        if not code.strip():
            continue
        covering: set[str] | None = None  # computed lazily per line
        for hazard, (pattern, _) in HAZARDS.items():
            if (rel, hazard) in WHITELIST:
                continue
            if not pattern.search(code):
                continue
            if covering is None:
                covering = pragma_checks_covering(lines, lineno)
            if PRAGMA_CHECK_FOR_HAZARD[hazard] in covering:
                continue
            findings.append((lineno, hazard, line.strip()))
    return findings


def hazard_present(path: Path, hazard: str) -> bool:
    """True if the hazard's regex still matches any non-comment line."""
    pattern = HAZARDS[hazard][0]
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return False
    for line in text.splitlines():
        code = line.split("//", 1)[0]
        if code.strip() and pattern.search(code):
            return True
    return False


def stale_whitelist_entries() -> list[str]:
    """Entries whose file is gone OR whose hazard vanished from the file.

    Both directions rot: a deleted file obviously, but also a refactor that
    removes the hazard — the entry would then silently excuse any FUTURE
    reintroduction, which is exactly the audit bypass the whitelist must
    not become.
    """
    stale = []
    for rel, hazard in sorted(WHITELIST):
        path = REPO_ROOT / rel
        if not path.is_file():
            stale.append(f"{rel} ({hazard}): file no longer exists")
        elif not hazard_present(path, hazard):
            stale.append(
                f"{rel} ({hazard}): file no longer contains this hazard — "
                "delete the entry")
    return stale


def main() -> int:
    stale = stale_whitelist_entries()
    if stale:
        print("stale whitelist entries:")
        for entry in stale:
            print(f"  {entry}")
        return 1

    failures = 0
    for scan_dir in SCAN_DIRS:
        root = REPO_ROOT / scan_dir
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            for lineno, hazard, snippet in scan_file(path):
                rel = path.relative_to(REPO_ROOT).as_posix()
                print(f"{rel}:{lineno}: [{hazard}] {snippet}")
                print(f"    {HAZARDS[hazard][1]}")
                failures += 1

    if failures:
        print(
            f"\n{failures} determinism hazard(s). Either fix the call site, "
            "justify it in place with a `// ccdn-lint: allow(<check>) -- "
            "<why>` pragma (preferred; serves tools/ccdn_lint.py too), or — "
            "for declaration-level hazards no line pragma fits — add a "
            "whitelist entry with the justification in "
            "tools/check_determinism_hygiene.py."
        )
        return 1
    print(
        "determinism hygiene: clean "
        f"({len(WHITELIST)} audited whitelist entries)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
