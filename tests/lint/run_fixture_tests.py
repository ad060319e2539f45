#!/usr/bin/env python3
"""Fixture pinning for tools/ccdn_lint.py, run as a ctest.

Each bad_<name>.cc under fixtures/ must make the linter exit 1 and report
EXACTLY its intended check id (no other check may fire — that would mean the
fixture stopped isolating its hazard). clean.cc must exit 0 with no findings.
The intended check is derived from the file name:

    bad_unordered_iteration.cc      -> unordered-iteration
    bad_double_accumulation.cc      -> double-accumulation
    bad_unordered_container.cc      -> unordered-container
    bad_cost_accumulation.cc        -> cost-accumulation
    bad_rand.cc                     -> nondet-random
    bad_wall_clock.cc               -> nondet-clock
    bad_missing_justification.cc    -> pragma

Runs the syntax engine explicitly: it is the engine every environment has
(the AST engine needs libclang bindings), so it is the behavior worth
pinning. When the bindings are present the AST engine is additionally
smoke-checked on the same fixtures.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
LINT = HERE.parent.parent / "tools" / "ccdn_lint.py"

EXPECTED = {
    "bad_unordered_iteration.cc": "unordered-iteration",
    "bad_double_accumulation.cc": "double-accumulation",
    "bad_unordered_container.cc": "unordered-container",
    "bad_cost_accumulation.cc": "cost-accumulation",
    "bad_rand.cc": "nondet-random",
    "bad_wall_clock.cc": "nondet-clock",
    "bad_missing_justification.cc": "pragma",
}

FINDING_RE = re.compile(r":\d+: \[([a-z-]+)\]")


def run_lint(fixture: Path, engine: str) -> tuple[int, set[str], str]:
    proc = subprocess.run(
        [sys.executable, str(LINT), "--engine", engine,
         "--files", str(fixture)],
        capture_output=True, text=True)
    checks = set(FINDING_RE.findall(proc.stdout))
    return proc.returncode, checks, proc.stdout + proc.stderr


def check_engine(engine: str) -> list[str]:
    failures = []
    for name, expected in sorted(EXPECTED.items()):
        fixture = FIXTURES / name
        if not fixture.is_file():
            failures.append(f"[{engine}] missing fixture {name}")
            continue
        code, checks, output = run_lint(fixture, engine)
        if code != 1:
            failures.append(
                f"[{engine}] {name}: expected exit 1, got {code}\n{output}")
        elif checks != {expected}:
            failures.append(
                f"[{engine}] {name}: expected exactly {{{expected}}}, "
                f"got {sorted(checks) or 'nothing'}\n{output}")
    clean = FIXTURES / "clean.cc"
    code, checks, output = run_lint(clean, engine)
    if code != 0 or checks:
        failures.append(
            f"[{engine}] clean.cc: expected exit 0 with no findings, got "
            f"exit {code}, findings {sorted(checks)}\n{output}")
    return failures


def main() -> int:
    failures = check_engine("syntax")
    probe = subprocess.run(
        [sys.executable, "-c", "import clang.cindex"], capture_output=True)
    if probe.returncode == 0:
        failures.extend(check_engine("ast"))
        engines = "syntax+ast"
    else:
        engines = "syntax (libclang bindings absent)"
    if failures:
        print("\n".join(failures))
        print(f"\n{len(failures)} fixture expectation(s) violated "
              f"[engines: {engines}]", file=sys.stderr)
        return 1
    print(f"all {len(EXPECTED) + 1} lint fixtures behave as pinned "
          f"[engines: {engines}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
