#!/usr/bin/env python3
"""End-to-end slot-scheduling benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload city-2m-hourly --seed 1 \
        --seconds 10 --trace 0

Builds ccdn_perfbench (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR,
default .bench_build; writes the workload's trace for the seed once into
.bench_cache/; does one untimed warm-up run; then starts fresh processes of
ccdn_perfbench, each replaying the whole trace through Simulator::run, as
many as fit in --seconds, and reports timings over all of them (see
end_to_end).
--trace 1 instead makes one untimed run and one traced run and reports the
per-layer metrics (spans go to .bench_out/).

Every run's plans are checked: ccdn_perfbench audits each slot, and this
script compares the per-slot plan digests across runs and against
perfbench/pins.json when the seed is pinned there. The last stdout line is
the JSON result; the exit code is 1 when a check failed. `--pin` recomputes
the seed's pins at 1 and 4 threads, requires them equal, and stores them.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"
KEEP_TRACES = 6  # cached trace files kept besides the current one
RUN_TIMEOUT_S = 170
WARMUP_SLOTS = 3

# name -> (slots in its trace, nominal seconds of one timed run). A failed
# run is charged all of its slots. The nominal run time (set-ups included),
# measured on a 4-vCPU x86 VM, fixes how many runs fit in --seconds, so that
# every version of the code is timed over the same number of runs, however
# fast it is: a best over more runs would favour faster code by itself.
WORKLOADS = {
    "city-2m-hourly": (72, 2.6),
    "dense-1k-hourly": (48, 3.5),
    "dense-1k-sharded": (48, 2.8),
}

# Metric names and units, in the order BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
PAPER_METRICS = ["serving_ratio", "avg_distance_km", "replication_cost",
                 "cdn_server_load"]


class BenchError(Exception):
    """The benchmark could not run (build or set-up); no result printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_binary():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "ccdn_perfbench", "-j4"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, env=env, check=False)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))
    return build_dir / "ccdn_perfbench"


def run_binary(binary, args, what):
    """Run one bench process; returns its JSON line, or None if it failed."""
    try:
        done = subprocess.run([str(binary)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{what}: timed out")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{what}: bench process exited with {done.returncode}")
        return None
    return json.loads(lines[-1])


def trace_file(binary, workload, seed):
    CACHE.mkdir(exist_ok=True)
    path = CACHE / f"{workload}-seed{seed}.csv"
    if not path.exists():
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        done = subprocess.run(
            [str(binary), "generate", f"--workload={workload}",
             f"--seed={seed}", f"--out={tmp}"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise BenchError("trace generation failed")
        tmp.rename(path)
        old = sorted((p for p in CACHE.glob("*.csv") if p != path),
                     key=lambda p: p.stat().st_mtime)
        for stale in old[:max(0, len(old) - KEEP_TRACES)]:
            stale.unlink(missing_ok=True)
    return path


def warm_up(binary, workload, trace):
    """Untimed: pull the trace into the page cache and run a few slots."""
    with open(trace, "rb") as f:
        while f.read(1 << 22):
            pass
    return run_binary(binary, ["run", f"--workload={workload}",
                               f"--in={trace}", f"--max_slots={WARMUP_SLOTS}"],
                      "warm-up")


def nearest_rank(sorted_values, percentile):
    rank = math.ceil(percentile / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return None


class Checker:
    """Counts failed slots: slot audits, digest agreement, pins."""

    def __init__(self, workload, seed):
        self.expected_slots = WORKLOADS[workload][0]
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        self.pinned = pins.get(workload, {}).get(str(seed))
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, result, label, truncated=False):
        """Fold one run's result in; `truncated` runs stop early."""
        if result is None:  # a run that throws fails all of its slots
            self.attempted += self.expected_slots
            self.failed += self.expected_slots
            self.notes.append(f"{label}: run failed")
            return
        slots = result["slots"]
        digests = result["digests"]
        bad = {int(k) for k in result["failed_ids"]}
        self.notes.extend(f"{label}: {f}" for f in result["failures"])
        paper = [result[name] for name in PAPER_METRICS if name in result]
        if any(v is None or not math.isfinite(v) for v in paper):
            self.notes.append(f"{label}: a paper metric is not finite")
            bad.update(range(slots))
        for reference, source in ((self.pinned, "pins.json"),
                                  (self.reference, "the first run")):
            if reference is None:
                continue
            for k, digest in enumerate(digests):
                if k >= len(reference) or digest != reference[k]:
                    bad.add(k)
                    self.notes.append(
                        f"{label}: slot {k} differs from {source}")
            if not truncated and len(digests) != len(reference):
                bad.update(range(slots))
                self.notes.append(f"{label}: slot count differs from {source}")
        if self.reference is None and not truncated:
            self.reference = digests
        self.attempted += slots
        self.failed += min(len(bad), slots)


def timed_runs(binary, workload, trace, seconds, checker):
    """As many runs as fit in `seconds` at the workload's nominal run time."""
    count = max(1, int(seconds // WORKLOADS[workload][1]))
    runs = []
    for k in range(1, count + 1):
        result = run_binary(binary, ["run", f"--workload={workload}",
                                      f"--in={trace}"], f"run {k}")
        checker.check(result, f"run {k}")
        if result is None:
            return runs
        runs.append(result)
        log(f"run {k}: wall {result['wall_s']:.3f} s")
    return runs


def end_to_end(runs):
    """Metrics over an invocation's runs.

    This machine's speed changes from one run to the next by up to a fifth
    (README.md has the evidence). Throughput and CPU time average over every
    run: requests, wall time and CPU time are summed over the runs. A slot
    takes tens of milliseconds, so each slot's latency is its fastest over
    the runs, and set-up time is the fastest of every set-up in every run:
    contention only ever slows a short span down, so the fastest is the
    steadiest estimate of its own cost. The memory peak is the median run's.
    The paper metrics are equal in all runs (the checker compares their plan
    digests).
    """
    requests = sum(r["requests"] for r in runs)
    cpu_s = sum(r["user_s"] + r["sys_s"] + r["children_cpu_s"] for r in runs)
    lat = sorted(min(slot) for slot in zip(*(r["latency_ms"] for r in runs)))
    n = len(lat)
    tail = tail_percentile(n)
    metrics = {
        "requests_per_s": requests / sum(r["wall_s"] for r in runs),
        "slot_latency_p50_ms": nearest_rank(lat, 50),
        "slot_latency_tail_ms": nearest_rank(lat, tail),
        "cpu_us_per_request": cpu_s / requests * 1e6,
        "peak_rss_mb": statistics.median(
            max(r["self_rss_mb"], r["children_rss_mb"]) for r in runs),
        "setup_s": min(s for r in runs for s in r["setup_s"]),
    }
    for name in PAPER_METRICS:
        metrics[name] = runs[0][name]
    notes = {"slot_latency_tail_ms": f"p{tail} of {n} slots",
             "requests_per_s": f"over {len(runs)} runs"}
    return metrics, notes


def per_layer(untraced, traced):
    metrics = {k: traced[k] for k in PER_LAYER if k in traced}
    wall = untraced["wall_s"]
    metrics["trace.spans_over_wall"] = traced["span_sum_s"] / wall
    metrics["sim.pull_wait_s"] = untraced["pull_wait_s"]
    metrics["sim.lane_busy_share"] = (untraced["plan_busy_s"]
                                      / (untraced["lanes"] * wall))
    metrics["proc.user_s"] = untraced["user_s"]
    metrics["proc.sys_s"] = untraced["sys_s"]
    cpu = untraced["user_s"] + untraced["sys_s"] + untraced["children_cpu_s"]
    metrics["proc.children_cpu_share"] = untraced["children_cpu_s"] / cpu
    return metrics


def pin(binary, workload, seed, trace):
    digests = []
    for threads in (1, 4):
        result = run_binary(binary, ["run", f"--workload={workload}",
                                      f"--in={trace}", f"--threads={threads}"],
                             f"pin at {threads} threads")
        if result is None or result["failed_ids"]:
            raise BenchError(f"pin run at {threads} threads failed")
        digests.append(result["digests"])
    if digests[0] != digests[1]:
        raise BenchError("plans differ between 1 and 4 threads; not pinned")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.setdefault(workload, {})[str(seed)] = digests[0]
    blocks = []
    for name in sorted(pins):
        rows = ",\n".join(f'  "{s}": {json.dumps(pins[name][s])}'
                          for s in sorted(pins[name], key=int))
        blocks.append(f' "{name}": {{\n{rows}\n }}')
    PINS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    log(f"pinned {workload} seed {seed}: {len(digests[0])} slots")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute and store this seed's pinned digests")
    args = parser.parse_args()

    binary = build_binary()
    trace = trace_file(binary, args.workload, args.seed)
    if args.pin:
        pin(binary, args.workload, args.seed, trace)
        return 0
    checker = Checker(args.workload, args.seed)
    checker.check(warm_up(binary, args.workload, trace), "warm-up",
                  truncated=True)

    if args.trace:
        untraced = run_binary(binary, ["run", f"--workload={args.workload}",
                                        f"--in={trace}"], "untraced run")
        checker.check(untraced, "untraced run")
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.json"
        traced = run_binary(binary, ["trace", f"--workload={args.workload}",
                                      f"--in={trace}", f"--spans={spans}"],
                             "traced run")
        checker.check(traced, "traced run")
        if untraced is None or traced is None:
            metrics, units = {}, {}
        else:
            if traced["serving_ratio"] != untraced["serving_ratio"]:
                checker.failed += traced["slots"]
                checker.notes.append("traced report differs from untraced")
            metrics = per_layer(untraced, traced)
            units = PER_LAYER
            log(f"replayed stages {traced['replayed_s']:.6f} s + "
                f"plan_other {metrics['core.plan_other_s']:.6f} s = "
                f"plan_slot {metrics['core.plan_s']:.6f} s; spans in {spans}")
        notes = {}
    else:
        runs = timed_runs(binary, args.workload, trace, args.seconds, checker)
        metrics, notes = end_to_end(runs) if runs else ({}, {})
        units = END_TO_END
    if metrics:
        metrics = {name: metrics[name] for name in units}  # all, in order

    correct = checker.failed == 0 and bool(metrics)
    for note in checker.notes[:20]:
        print("check: " + note)
    print(f"workload {args.workload} seed {args.seed} "
          f"pinned={'yes' if checker.pinned else 'no'} "
          f"failed_slot_share "
          f"{checker.failed / max(checker.attempted, 1):.6f} ratio")
    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {value:.9g} {units[name]}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log(f"perfbench: {error}")
        sys.exit(2)
