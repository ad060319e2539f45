#!/usr/bin/env python3
"""Perf-regression trend gate for the committed benchmark baselines.

Compares a freshly-measured benchmark JSON against the baseline committed
at the repo root and fails when any shared metric regresses by more than
the tolerance (default 15%). Two file formats are understood, detected
from the JSON shape:

  * google-benchmark JSON (BENCH_micro.json): the harness emits
    min-of-repetitions aggregates (see micro_benchmarks.cc main()), so the
    gate reads rows with aggregate_name == "min" and falls back to plain
    iteration rows only when a file carries no aggregates at all. The
    metric is real_time normalised to nanoseconds.
  * the flat flow/stream bench format ({"bench": ..., "benchmarks":
    [{"name": ..., ...}]}, e.g. BENCH_flow.json): every numeric field
    ending in "_s" is a wall-time metric and every field ending in
    "_rss_mb" or "_mb" is a memory metric, keyed "<row name>:<field>".

CI runners are not the machine the baselines were measured on, so wall
metrics are CALIBRATED by default: the gate computes the median
current/baseline ratio across all shared wall metrics and divides each
ratio by that factor. A uniformly slower machine then reads 1.00x
everywhere, while a single benchmark regressing against its peers still
stands out. Disable with --no-calibrate for same-machine trend checks.
RSS metrics are never calibrated — memory does not scale with CPU speed.

Metrics whose baseline sits below the noise floor (default 100us wall /
0.5 MB RSS) are reported but never gate: timer jitter at that scale
produces false 15% swings. Metrics present on only one side are listed
informationally (new benchmarks are fine; vanished ones deserve a look)
but do not fail the gate — renaming a benchmark therefore silently drops
its coverage, so renames should regenerate the baseline in the same PR.

--only restricts gating to one metric kind: "rss" is the right mode for
cross-machine CI (peak RSS is stable across runner speeds, wall time is
not), "wall" for same-machine trend checks. --prefix (repeatable)
restricts gating to rows whose name starts with one of the given
prefixes, e.g. --prefix sharding/ --prefix theta_sweep/ to gate only
those BENCH_flow.json sections.

Exit status: 0 green, 1 regression(s) past tolerance, 2 usage/IO error.

Usage:
  python3 tools/bench_gate.py BENCH_micro.json fresh_micro.json
  python3 tools/bench_gate.py BENCH_flow.json fresh_flow.json \
      --no-calibrate --tolerance 0.15
  python3 tools/bench_gate.py BENCH_stream.json fresh_stream.json \
      --only rss
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
RSS_FLOOR_MB = 0.5


def load_metrics(path: Path) -> dict[str, tuple[float, str]]:
    """Parse one bench JSON into {metric name: (value, kind)}.

    kind is "wall" (nanoseconds) or "rss" (megabytes).
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"error: cannot parse {path}: {err}", file=sys.stderr)
        sys.exit(2)
    rows = data.get("benchmarks")
    if not isinstance(rows, list):
        print(f"error: {path}: no 'benchmarks' array", file=sys.stderr)
        sys.exit(2)

    if "context" in data:  # google-benchmark format
        mins = [r for r in rows if r.get("aggregate_name") == "min"]
        if not mins:  # a run without repetitions has no aggregates
            mins = [r for r in rows if r.get("run_type") != "aggregate"]
        metrics = {}
        for r in mins:
            unit = TIME_UNIT_NS.get(r.get("time_unit", "ns"))
            if unit is None or "real_time" not in r:
                continue
            name = r["name"].removesuffix("_min")
            metrics[name] = (float(r["real_time"]) * unit, "wall")
        return metrics

    # Flat flow/stream format: one metric per numeric field per row.
    metrics = {}
    for r in rows:
        name = r.get("name")
        if not isinstance(name, str):
            continue
        for field, value in r.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if field.endswith("_s"):
                metrics[f"{name}:{field}"] = (float(value) * 1e9, "wall")
            elif field.endswith(("_rss_mb", "_mb")):
                metrics[f"{name}:{field}"] = (float(value), "rss")
    return metrics


def fmt(value: float, kind: str) -> str:
    if kind == "rss":
        return f"{value:.2f}MB"
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
    parser.add_argument(
        "--only", choices=("all", "wall", "rss"), default="all",
        help="gate only this metric kind (rss is machine-independent, so "
        "it is the mode for cross-machine CI)",
    )
    parser.add_argument(
        "--prefix", action="append", default=None, metavar="NAME_PREFIX",
        help="gate only metrics whose row name starts with this prefix "
        "(repeatable; default: all rows)",
    )
    args = parser.parse_args()

    base = load_metrics(args.baseline)
    cur = load_metrics(args.current)
    if args.only != "all":
        base = {m: v for m, v in base.items() if v[1] == args.only}
        cur = {m: v for m, v in cur.items() if v[1] == args.only}
    if args.prefix:
        prefixes = tuple(args.prefix)
        base = {m: v for m, v in base.items() if m.startswith(prefixes)}
        cur = {m: v for m, v in cur.items() if m.startswith(prefixes)}
    shared = sorted(set(base) & set(cur))
    if not shared:
        print(
            f"error: no shared metrics between {args.baseline} and "
            f"{args.current} — scale/name mismatch?",
            file=sys.stderr,
        )
        return 2

    wall_ratios = [
        cur[m][0] / base[m][0]
        for m in shared
        if base[m][1] == "wall" and base[m][0] > 0
    ]
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
        base_v, kind = base[m]
        cur_v, _ = cur[m]
        if base_v <= 0:
            continue
        ratio = cur_v / base_v
        if kind == "wall":
            ratio /= calibration
        floor = WALL_FLOOR_NS if kind == "wall" else RSS_FLOOR_MB
        gates = base_v >= floor
        if not gates:
            skipped_floor += 1
        results.append((ratio, m, base_v, cur_v, kind, gates))
        if gates and ratio > 1.0 + args.tolerance:
            failures.append(m)

    for ratio, m, base_v, cur_v, kind, gates in sorted(results, reverse=True):
        flag = (
            "REGRESSION"
            if m in failures
            else "(noise floor)" if not gates else ""
        )
        if ratio > 1.0 + args.tolerance / 2 or m in failures:
            print(
                f"  {ratio:6.2f}x  {m}: "
                f"{fmt(base_v, kind)} -> {fmt(cur_v, kind)}  {flag}"
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
