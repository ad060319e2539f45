#!/usr/bin/env python3
"""Perf-regression trend gate for the committed micro-benchmark baseline.

Compares a freshly-measured google-benchmark JSON against the baseline
committed at the repo root (BENCH_micro.json) and fails when any shared
metric regresses by more than the tolerance (default 15%). The harness
emits min-of-repetitions aggregates (see micro_benchmarks.cc main()), so
the gate reads rows with aggregate_name == "min" and falls back to plain
iteration rows only when a file carries no aggregates at all. The metric
is real_time normalised to nanoseconds.

CI runners are not the machine the baselines were measured on, so wall
metrics are CALIBRATED by default: the gate computes the median
current/baseline ratio across all shared metrics and divides each ratio
by that factor. A uniformly slower machine then reads 1.00x everywhere,
while a single benchmark regressing against its peers still stands out.
Disable with --no-calibrate for same-machine trend checks.

Metrics whose baseline sits below the noise floor (100us) are reported
but never gate: timer jitter at that scale produces false 15% swings.
Metrics present on only one side are listed informationally (new
benchmarks are fine; vanished ones deserve a look) but do not fail the
gate — renaming a benchmark therefore silently drops its coverage, so
renames should regenerate the baseline in the same PR.

Exit status: 0 green, 1 regression(s) past tolerance, 2 usage/IO error.

Usage:
  python3 tools/bench_gate.py BENCH_micro.json fresh_micro.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# Multipliers to nanoseconds for google-benchmark time units.
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

WALL_FLOOR_NS = 100_000.0  # 100us: below this, timer noise dominates


def load_metrics(path: Path) -> dict[str, float]:
    """Parse one bench JSON into {metric name: wall time in nanoseconds}."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"error: cannot parse {path}: {err}", file=sys.stderr)
        sys.exit(2)
    rows = data.get("benchmarks")
    if not isinstance(rows, list):
        print(f"error: {path}: no 'benchmarks' array", file=sys.stderr)
        sys.exit(2)

    mins = [r for r in rows if r.get("aggregate_name") == "min"]
    if not mins:  # a run without repetitions has no aggregates
        mins = [r for r in rows if r.get("run_type") != "aggregate"]
    metrics = {}
    for r in mins:
        unit = TIME_UNIT_NS.get(r.get("time_unit", "ns"))
        if unit is None or "real_time" not in r:
            continue
        name = r["name"].removesuffix("_min")
        metrics[name] = float(r["real_time"]) * unit
    return metrics


def fmt(value: float) -> str:
    for unit, mul in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if value >= mul:
            return f"{value / mul:.3g}{unit}"
    return f"{value:.0f}ns"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fail when benchmarks regress past tolerance vs baseline"
    )
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument("current", type=Path, help="freshly measured JSON")
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="max allowed regression ratio above 1.0 (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--no-calibrate", action="store_true",
        help="skip median-ratio machine calibration of wall metrics",
    )
    args = parser.parse_args()

    base = load_metrics(args.baseline)
    cur = load_metrics(args.current)
    shared = sorted(set(base) & set(cur))
    if not shared:
        print(
            f"error: no shared metrics between {args.baseline} and "
            f"{args.current} — scale/name mismatch?",
            file=sys.stderr,
        )
        return 2

    wall_ratios = [cur[m] / base[m] for m in shared if base[m] > 0]
    calibration = 1.0
    if not args.no_calibrate and len(wall_ratios) >= 3:
        calibration = statistics.median(wall_ratios)
    print(
        f"bench gate: {len(shared)} shared metrics, machine calibration "
        f"{calibration:.3f}x, tolerance +{args.tolerance:.0%}"
    )

    failures = []
    skipped_floor = 0
    results = []
    for m in shared:
        base_v = base[m]
        cur_v = cur[m]
        if base_v <= 0:
            continue
        ratio = cur_v / base_v / calibration
        gates = base_v >= WALL_FLOOR_NS
        if not gates:
            skipped_floor += 1
        results.append((ratio, m, base_v, cur_v, gates))
        if gates and ratio > 1.0 + args.tolerance:
            failures.append(m)

    for ratio, m, base_v, cur_v, gates in sorted(results, reverse=True):
        flag = (
            "REGRESSION"
            if m in failures
            else "(noise floor)" if not gates else ""
        )
        if ratio > 1.0 + args.tolerance / 2 or m in failures:
            print(
                f"  {ratio:6.2f}x  {m}: "
                f"{fmt(base_v)} -> {fmt(cur_v)}  {flag}"
            )

    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    if only_base:
        print(f"  note: {len(only_base)} baseline metric(s) missing from "
              f"current run: {', '.join(only_base[:5])}"
              f"{' ...' if len(only_base) > 5 else ''}")
    if only_cur:
        print(f"  note: {len(only_cur)} new metric(s) not in baseline "
              f"(regenerate to cover them): {', '.join(only_cur[:5])}"
              f"{' ...' if len(only_cur) > 5 else ''}")
    if skipped_floor:
        print(f"  note: {skipped_floor} metric(s) below the noise floor "
              "reported but not gated")

    if failures:
        print(
            f"\nbench gate: {len(failures)} metric(s) regressed more than "
            f"{args.tolerance:.0%} past calibration. If the slowdown is "
            "intentional, regenerate the baseline in this PR and explain "
            "the trade in the PR description."
        )
        return 1
    print("bench gate: green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
