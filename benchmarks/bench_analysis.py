"""Experiment C11 — cached-engine validation vs prefix re-analysis.

One measurement, appended to the ``BENCH_perf.json`` trajectory under the
``c11-cached-validation`` label: validating k commits the from-scratch way
(a one-shot :func:`~repro.core.serializability.analyze_system` of each
committed prefix, the optimistic certifier's old inner loop) against the
cached way (one :class:`~repro.core.dependency.IncrementalDependencyEngine`,
each commit appended as a delta).  The ``pr4`` trajectory entry has a
different shape: it also timed the batch fixpoint, which now lives only in
the test suite as the differential reference.
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
from repro.core.commutativity import CommutativityRegistry
from repro.core.dependency import IncrementalDependencyEngine
from repro.core.serializability import analyze_system
from repro.core.transactions import TransactionSystem
from repro.oodb.trace import committed_projection

#: certifier shape: wide and shallow, like fuzz workloads
CERT_TXNS = 12
CERT_DEPTH = 8


def build_layered_history(n_txns: int, depth: int) -> TransactionSystem:
    """``n_txns`` transactions, each a ``depth``-deep call chain through a
    shared stack of objects, interleaved round-robin (so every object
    schedule is maximally non-serial but consistently ordered)."""
    system = TransactionSystem()
    chains = []
    for t in range(n_txns):
        txn = system.transaction(f"T{t}")
        chains.append(txn.root)
    for level in range(1, depth + 1):
        for t in range(n_txns):
            node = chains[t].call(f"L{level}", "m", (t,))
            node.seq = system._next_seq()
            chains[t] = node
    return system


def _timeit(fn, *, budget_s: float = 2.0) -> float:
    """Seconds per call, measured over a fixed wall-clock budget."""
    start = time.perf_counter()
    calls = 0
    while time.perf_counter() - start < budget_s:
        fn()
        calls += 1
    return (time.perf_counter() - start) / calls


def _validate_from_scratch(system, registry, labels) -> None:
    """The certifier's old inner loop: every commit re-analyzes its whole
    committed prefix from empty."""
    committed: set[str] = set()
    for label in labels:
        committed.add(label)
        verdict, _ = analyze_system(
            committed_projection(system, committed), registry
        )
        assert verdict.oo_serializable


def _validate_incremental(system, registry, tops) -> None:
    """The cached-engine loop: each commit appends its own deltas."""
    engine = IncrementalDependencyEngine(
        committed_projection(system, set()), registry, track_cycles=True
    )
    for txn in tops:
        engine.append_transaction(txn)
        assert not engine.violated


def _certifier_section() -> dict:
    system = build_layered_history(CERT_TXNS, CERT_DEPTH)
    registry = CommutativityRegistry()  # ConflictAll: everything lifts
    labels = [txn.label for txn in system.tops]
    tops = list(system.tops)

    scratch_s = _timeit(
        lambda: _validate_from_scratch(system, registry, labels)
    )
    incremental_s = _timeit(
        lambda: _validate_incremental(system, registry, tops)
    )
    return {
        "commits": len(labels),
        "actions": sum(1 for _ in system.all_actions()),
        "from_scratch_ms": round(scratch_s * 1000, 2),
        "incremental_ms": round(incremental_s * 1000, 2),
        "from_scratch_validations_per_s": round(len(labels) / scratch_s, 1),
        "incremental_validations_per_s": round(len(labels) / incremental_s, 1),
        "speedup": round(scratch_s / incremental_s, 2),
    }


def run_analysis_bench() -> dict:
    return {
        "label": os.environ.get(
            "BENCH_ANALYSIS_LABEL", "c11-cached-validation"
        ),
        "cpus": multiprocessing.cpu_count(),
        "python": platform.python_version(),
        "certifier_validation": _certifier_section(),
    }


def _render(entry: dict) -> str:
    cert = entry["certifier_validation"]
    rows = [
        [
            f"certifier: validate {cert['commits']} commits "
            f"({cert['actions']} actions)",
            f"{cert['from_scratch_ms']}ms re-analyze",
            f"{cert['incremental_ms']}ms cached engine",
            f"x{cert['speedup']}",
        ],
    ]
    return render_table(
        ["workload", "from scratch", "cached", "speedup"],
        rows,
        title=f"C11 — cached-engine validation, "
        f"label={entry['label']} (cpus={entry['cpus']})",
    )


def test_analysis_trajectory(benchmark):
    entry = benchmark.pedantic(run_analysis_bench, rounds=1, iterations=1)
    write_trajectory(entry)
    emit("analysis_incremental", _render(entry))

    cert = entry["certifier_validation"]
    assert cert["speedup"] >= 3.0, (
        "cached-engine validation should be >=3x prefix re-analysis, "
        f"got x{cert['speedup']}"
    )
