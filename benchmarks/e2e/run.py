#!/usr/bin/env python3
"""End-to-end commit-path benchmark: runner.

    python benchmarks/e2e/run.py --seed 7              every workload, verified
    python benchmarks/e2e/run.py --seed 7 --trace      per-layer numbers instead
    python benchmarks/e2e/run.py --workload mem_k8 --seed 3 --seconds 22 --trace 0
    python benchmarks/e2e/run.py --repeat-check        two sets, compared to bounds
    python benchmarks/e2e/run.py --spread-check        ten seeds, spread vs bounds
    python benchmarks/e2e/run.py --selfcheck           BENCHMARK.json vs registry
    python benchmarks/e2e/run.py --quick               smoke run: 1 rep, N / 4

Each workload runs in a fresh subprocess (``driver.py``) pinned to one CPU.
The pin is the runner's, not the program's: ``InterleavedExecutor`` runs one
worker at a time on real threads, and once the kernel spreads those threads
over two CPUs every baton hand-off becomes a cross-CPU wake-up (README.md).

Every metric is printed by name and unit; the last line of standard output is
one JSON object.  Any failed output check exits non-zero and prints no
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from driver import spread  # noqa: E402
from registry import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

#: the contract allows a run 180 s; a child that takes longer is killed
CHILD_TIMEOUT_S = 170
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def pin_to_one_cpu() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(name: str, args, scratch: str) -> dict:
    """One pinned child for one workload; raises SystemExit on failure."""
    command = [
        sys.executable, str(HERE / "driver.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", scratch,
    ]
    if args.quick:
        command.append("--quick")
    try:
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise SystemExit(f"{name}: driver exited with {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def registered(trace: int) -> tuple:
    return PER_LAYER if trace else END_TO_END


def result_line(result: dict, trace: int) -> dict:
    """The contract's last line for one workload."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric.name: {
                "value": result["metrics"][metric.name],
                "unit": metric.unit,
            }
            for metric in registered(trace)
        },
    }


def print_table(result: dict, trace: int) -> None:
    print(f"== {result['workload']}  attempted {result['attempted']}"
          f"  failed {result['failed']}")
    for note in result["notes"]:
        print(f"   {note}")
    layer = None
    for metric in registered(trace):
        if metric.layer != layer and metric.layer:
            layer = metric.layer
            print(f"   [{layer}]")
        arrow = f"  -> {metric.moves}" if metric.moves else ""
        print(f"   {metric.name:34s} {result['metrics'][metric.name]:14.6g}"
              f" {metric.unit}{arrow}")


def run_set(names: list, args, scratch: str) -> dict:
    return {name: run_workload(name, args, scratch) for name in names}


# -- --repeat-check -----------------------------------------------------------


def repeat_check(names: list, args, scratch: str) -> int:
    """Two full sets of the same code and seed, compared to the bounds."""
    first = run_set(names, args, scratch)
    second = run_set(names, args, scratch)
    breaches = 0
    for name in names:
        # one seed, so the logical schedule must repeat to the tick
        same = [
            [(r["ticks"], r["committed"], r["submitted"]) for r in run[name]["reps"]]
            for run in (first, second)
        ]
        if same[0] != same[1]:
            breaches += 1
            print(f"{name}: ticks/commits of the reps differ between the sets")
    print(f"repeat-check: seed {args.seed}, two sets back to back; "
          "a metric breaches when the second set is worse than the first "
          "by more than its bound")
    print(f"{'workload/metric':42s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for name in names:
        for metric in END_TO_END:
            a = first[name]["metrics"][metric.name]
            b = second[name]["metrics"][metric.name]
            worse = (b - a) / a if metric.better == "lower" else (a - b) / a
            breach = worse > metric.bound
            breaches += breach
            print(f"{name + '/' + metric.name:42s} {a:12.6g} {b:12.6g} "
                  f"{worse:+9.4f} {metric.bound:6.2f}"
                  + ("  BREACH" if breach else ""))
    print(f"{breaches} breach(es)" + ("" if breaches else "; every rep's ticks, "
          "commits and submits are identical in both sets"))
    return 1 if breaches else 0


# -- --spread-check -----------------------------------------------------------


def spread_check(names: list, args, scratch: str) -> int:
    """The acceptance procedure of the benchmark contract: ten runs per
    workload, each with another seed; per end-to-end metric the distance
    between the quartiles of the ten values as a share of their median."""
    print(f"spread-check: seeds {args.seed + 1}..{args.seed + 10}, "
          f"--seconds {args.seconds}")
    print(f"{'workload/metric':42s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    over = 0
    for name in names:
        runs = []
        for _ in range(10):
            args.seed += 1
            runs.append(run_workload(name, args, scratch)["metrics"])
        args.seed -= 10
        for metric in END_TO_END:
            values = [run[metric.name] for run in runs]
            wide = spread(values) > metric.bound and metric.name != "setup_s"
            over += wide
            print(f"{name + '/' + metric.name:42s} "
                  f"{statistics.median(values):12.6g} {spread(values):8.4f} "
                  f"{metric.bound:6.2f}" + ("  OVER" if wide else ""), flush=True)
    print(f"{over} spread(s) over the bound")
    return 1 if over else 0


# -- --selfcheck --------------------------------------------------------------


def selfcheck() -> int:
    """BENCHMARK.json against the registry and the contract's limits."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def compare(key: str, wanted: list, limit: int) -> None:
        listed = spec.get(key, [])
        if len(listed) > limit:
            problems.append(f"{key}: {len(listed)} entries, at most {limit}")
        for entry in listed:
            if not NAME.fullmatch(entry.get("name", "")):
                problems.append(f"{key}: bad name {entry.get('name')!r}")
        if listed != wanted:
            problems.append(f"{key}: differs from the runner's registry")

    compare(
        "workloads",
        [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.gated],
        8,
    )
    compare(
        "end_to_end",
        [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        16,
    )
    compare(
        "per_layer",
        [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
        128,
    )
    for metric in END_TO_END:
        if not (metric.unit and metric.better in ("lower", "higher")
                and metric.bound is not None and 0 < metric.bound <= 0.25):
            problems.append(f"end_to_end {metric.name}: unit/direction/bound")
    if not any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in END_TO_END):
        problems.append("end_to_end: no setup_s in s, lower is better")
    if spec.get("run_seconds") != RUN_SECONDS:
        problems.append(f"run_seconds: {spec.get('run_seconds')}")
    if spec.get("paths") != [str(HERE.relative_to(ROOT))]:
        problems.append(f"paths: {spec.get('paths')}")
    for problem in problems:
        print(f"selfcheck: {problem}")
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the request streams")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time to measure for: sets the rep count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one rep of N / 4 commits")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--spread-check", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if not (ROOT / "src" / "repro").is_dir():
        print("no src/repro beside the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    names = [args.workload] if args.workload else list(WORKLOADS)
    # Throwaway data dirs live under the benchmark's own results directory
    # and are removed whatever happens; nothing is written elsewhere.
    (HERE / "results").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=".tmp-", dir=HERE / "results")
    try:
        if args.repeat_check:
            return repeat_check(names, args, scratch)
        if args.spread_check:
            if not args.workload:
                names = [name for name in names if WORKLOADS[name].gated]
            return spread_check(names, args, scratch)
        results = run_set(names, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"seed {args.seed}, pinned to cpu {cpu}, "
          f"{os.cpu_count()} cpus, python {sys.version.split()[0]}")
    for result in results.values():
        print_table(result, args.trace)
    if args.workload:
        last = result_line(results[args.workload], args.trace)
    else:
        last = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, result in results.items()
                for metric, entry in result_line(result, args.trace)["metrics"].items()
            },
        }
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
