"""Experiment C12 — the cost of observability, enabled and disabled.

The observability contract is "cost nothing when nobody is watching":
every instrumentation site is an attribute load and a branch, and the
event object is never allocated on the disabled path.  This bench puts
numbers on both sides of that contract:

1. **Guard microbench** — the per-site cost of the disabled pattern
   (``if bus.active: ...``) in nanoseconds, measured over a million
   iterations, against the cost of a site that actually emits to a
   subscriber.
2. **Cell overhead** — real smoke fuzz cells executed with the bus inert
   vs with a span tracer and an event log subscribed: wall time, events
   per cell, and the enabled overhead percentage.
3. **Implied disabled overhead** — emitted-event count x guard cost as a
   bound on what the dormant instrumentation adds to an untraced cell,
   asserted under the 3% budget the subsystem was admitted with.

The entry lands in ``BENCH_perf.json`` under label ``pr5`` (override with
``$BENCH_PERF_LABEL``) so the trajectory records what observability cost
when it was introduced.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import emit, write_trajectory

from repro.analysis import render_table
from repro.catalog import GeneratorProfile, generate
from repro.fuzz.driver import execute_cell
from repro.obs import EventBus, EventLog, SpanTracer, chrome_trace
from repro.obs.events import LockRequest
from repro.obs.export import validate_chrome_trace

GUARD_ITERATIONS = 1_000_000
CELL_SEEDS = tuple(range(8))
CELL_PROTOCOLS = ("page-2pl", "open-nested-oo")
REPEATS = 3
#: the admission budget: dormant instrumentation must stay under this
DISABLED_BUDGET = 0.03


# ---------------------------------------------------------------------------
# 1. the guard microbench
# ---------------------------------------------------------------------------


def _guard_loop(bus: EventBus, iterations: int) -> float:
    """Time the exact shape of an instrumentation site, ``iterations`` times."""
    start = time.perf_counter()
    for _ in range(iterations):
        if bus.active:
            bus.emit(LockRequest(txn="T", obj="O", method="m", tick=bus.now()))
    return time.perf_counter() - start


def _guard_section() -> dict:
    disabled_bus = EventBus()
    disabled_s = min(
        _guard_loop(disabled_bus, GUARD_ITERATIONS) for _ in range(REPEATS)
    )

    enabled_bus = EventBus()
    sink = []
    enabled_bus.subscribe(sink.append)
    enabled_s = min(
        _guard_loop(enabled_bus, GUARD_ITERATIONS) for _ in range(REPEATS)
    )
    assert len(sink) == GUARD_ITERATIONS * REPEATS

    return {
        "iterations": GUARD_ITERATIONS,
        "disabled_ns_per_site": round(disabled_s / GUARD_ITERATIONS * 1e9, 2),
        "enabled_ns_per_site": round(enabled_s / GUARD_ITERATIONS * 1e9, 2),
    }


# ---------------------------------------------------------------------------
# 2. real cells, inert vs subscribed
# ---------------------------------------------------------------------------


def _run_cells(traced: bool) -> tuple[float, int]:
    """Execute the cell grid; returns (seconds, events observed)."""
    profile = GeneratorProfile.smoke()
    events = 0
    start = time.perf_counter()
    for seed in CELL_SEEDS:
        spec = generate(seed, profile)
        for protocol in CELL_PROTOCOLS:
            bus = None
            log = tracer = None
            if traced:
                bus = EventBus()
                log = EventLog(bus)
                tracer = SpanTracer(bus)
            result = execute_cell(spec, protocol, bus=bus)
            if traced:
                tracer.finish(result.makespan)
                events += len(log)
                # the artifact must actually be well-formed, not just fast
                assert validate_chrome_trace(chrome_trace(tracer.trees())) == []
    return time.perf_counter() - start, events


def _cell_section() -> dict:
    disabled_s = min(_run_cells(traced=False)[0] for _ in range(REPEATS))
    enabled_runs = [_run_cells(traced=True) for _ in range(REPEATS)]
    enabled_s = min(run[0] for run in enabled_runs)
    events = enabled_runs[0][1]

    cells = len(CELL_SEEDS) * len(CELL_PROTOCOLS)
    return {
        "cells": cells,
        "events": events,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "enabled_overhead_pct": round(
            (enabled_s - disabled_s) / disabled_s * 100, 2
        ),
        "events_per_cell": round(events / cells, 1),
    }


def run_obs_bench() -> dict:
    guard = _guard_section()
    cells = _cell_section()
    # every guarded site that fires costs one disabled check in an untraced
    # run; events x guard-cost bounds what dormant instrumentation adds
    implied = (
        cells["events"]
        * guard["disabled_ns_per_site"]
        / 1e9
        / cells["disabled_s"]
    )
    return {
        "label": os.environ.get("BENCH_PERF_LABEL", "pr5"),
        "cpus": multiprocessing.cpu_count(),
        "python": platform.python_version(),
        "guard": guard,
        "cells": cells,
        "implied_disabled_overhead_pct": round(implied * 100, 3),
    }


def _render(entry: dict) -> str:
    guard = entry["guard"]
    cells = entry["cells"]
    rows = [
        [
            "guard (per site)",
            f"{guard['iterations']} checks",
            f"{guard['disabled_ns_per_site']} ns disabled",
            f"{guard['enabled_ns_per_site']} ns emitting",
        ],
        [
            "smoke cells",
            f"{cells['cells']} cells, {cells['events']} events",
            f"{cells['disabled_s']}s inert bus",
            f"{cells['enabled_s']}s traced "
            f"(+{cells['enabled_overhead_pct']}%)",
        ],
        [
            "disabled overhead",
            f"{cells['events_per_cell']} sites/cell fired",
            f"{entry['implied_disabled_overhead_pct']}% implied",
            f"budget {DISABLED_BUDGET * 100:.0f}%",
        ],
    ]
    return render_table(
        ["measurement", "work", "disabled", "enabled"],
        rows,
        title=f"C12 — observability overhead, label={entry['label']} "
        f"(cpus={entry['cpus']})",
    )


def test_obs_overhead(benchmark):
    entry = benchmark.pedantic(run_obs_bench, rounds=1, iterations=1)
    write_trajectory(entry)
    emit("obs_overhead", _render(entry))

    # the zero-cost contract: a dormant site is tens of nanoseconds, and
    # the instrumentation a traced run would fire stays under the 3%
    # admission budget when nobody subscribes
    assert entry["guard"]["disabled_ns_per_site"] < 1000
    assert (
        entry["implied_disabled_overhead_pct"] < DISABLED_BUDGET * 100
    ), entry
    # tracing is allowed to cost something, but not multiples
    assert entry["cells"]["enabled_overhead_pct"] < 400, entry
    assert entry["cells"]["events"] > 0
