"""Shared helpers for the bench suite, and its standalone runner.

Every bench prints its paper-style table *and* writes it to
``benchmarks/results/<name>.txt`` so the regenerated artifacts survive
pytest's output capturing.  EXPERIMENTS.md records the reference outputs.

``python benchmarks/_harness.py [pattern ...]`` runs every ``bench_*.py``
module's test functions directly (a stub stands in for the pytest-benchmark
fixture) and — unlike the old behavior of importing modules that define
but never execute their checks — **exits non-zero when any benchmark's
internal verification fails** (1) or a pattern matches no module (2), so CI
cannot mistake a broken claim table, or a typo, for a regenerated one.

``--jobs N`` shards bench *modules* across worker processes (``0`` means
one per CPU).  Each module's output is captured in the worker and printed
in sorted module order, so a parallel run's transcript matches the serial
one regardless of which worker finishes first.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import multiprocessing
import sys
import traceback
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def emit(name: str, text: str) -> str:
    """Print a bench artifact and persist it under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    print(f"\n=== {name} ===")
    print(text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def write_trajectory(entry: dict) -> dict:
    """Append/replace one labelled entry in ``BENCH_perf.json``.

    The artifact is a per-PR performance trajectory: every perf-oriented
    bench (C10's hot paths, C11's cached validation) contributes an entry
    keyed by its ``label`` so regressions show up as numbers, not
    anecdotes.
    """
    data = {"benchmark": "perf trajectory (experiment C10)", "entries": []}
    if BENCH_JSON.exists():
        try:
            previous = json.loads(BENCH_JSON.read_text())
            if isinstance(previous.get("entries"), list):
                data = previous
        except (json.JSONDecodeError, OSError):
            pass  # a corrupt artifact is simply regenerated
    data["entries"] = [
        e for e in data["entries"] if e.get("label") != entry["label"]
    ] + [entry]
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


class DirectBenchmark:
    """Stand-in for the pytest-benchmark fixture: just run the callable."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        result = None
        for _ in range(max(1, rounds) * max(1, iterations)):
            result = fn(*args, **(kwargs or {}))
        return result


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_module(path: Path) -> int:
    """Run one module's test functions; returns 1 on failure, 0 on pass.

    Prints the usual PASS/FAIL line itself, so callers (serial loop or the
    output-capturing pool worker) emit identical transcripts.
    """
    try:
        module = _load_module(path)
        tests = [
            getattr(module, name)
            for name in sorted(dir(module))
            if name.startswith("test_") and callable(getattr(module, name))
        ]
        for test in tests:
            test(DirectBenchmark())
    except BaseException:
        print(f"\nFAIL {path.name}", file=sys.stderr)
        traceback.print_exc()
        return 1
    print(f"PASS {path.name}")
    return 0


def _pool_worker(path_str: str) -> tuple[int, str]:
    """Module runner for ``--jobs``: capture output, ship it back picklable."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        failed = _run_module(Path(path_str))
    return failed, out.getvalue()


def _bench_paths() -> list[Path]:
    return sorted(Path(__file__).parent.glob("bench_*.py"))


def run_benchmarks(patterns: list[str] | None = None, jobs: int = 1) -> int:
    """Run bench modules' verifications; return the number of failures."""
    paths = _bench_paths()
    if patterns:
        paths = [p for p in paths if any(pat in p.stem for pat in patterns)]
    if jobs <= 0:
        jobs = multiprocessing.cpu_count()
    if jobs > 1 and len(paths) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(paths))) as pool:
            results = pool.map(_pool_worker, [str(p) for p in paths])
        failures = 0
        # map preserves submission order: transcript matches the serial run
        for failed, output in results:
            failures += failed
            sys.stdout.write(output)
    else:
        failures = sum(_run_module(path) for path in paths)
    print(f"\n{len(paths)} bench module(s), {failures} failure(s)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the bench suite's verifications outside pytest."
    )
    parser.add_argument(
        "patterns",
        nargs="*",
        help="substring filters on bench module names (default: all)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run bench modules across N worker processes (0 = one per CPU)",
    )
    args = parser.parse_args(list(argv if argv is not None else sys.argv[1:]))
    stems = [path.stem for path in _bench_paths()]
    for pattern in args.patterns:
        if not any(pattern in stem for stem in stems):
            # A typo must not pass CI by selecting (and verifying) nothing.
            print(
                f"error: pattern {pattern!r} matches no bench module",
                file=sys.stderr,
            )
            return 2
    failures = run_benchmarks(args.patterns, jobs=args.jobs)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
