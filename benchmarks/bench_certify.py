"""Experiment C14 — Vbox-style certification vs the exact engine.

Two measurements, appended to the ``BENCH_perf.json`` trajectory as the
``pr8`` entry:

1. **Synthetic scaling**: conflict-sparse histories of 1k/5k/20k/100k
   actions (per-object timeline density held constant — bigger histories
   touch proportionally more objects, the Vbox regime).  Each history is
   certified by the :class:`OnlineCertifier` fast path and validated by
   the :class:`IncrementalDependencyEngine` on the same pre-linearized
   trees; both must accept, and at 100k actions the certifier must be
   >=10x the engine's throughput (the ISSUE 8 acceptance gate).
2. **Executed histories**: a ``GeneratorProfile.long`` fuzz cell run end
   to end, judged by :func:`certify_history` against
   :func:`check_history` — same verdict, with the certifier carrying
   every commit on the fast path.

The differential suite (tests/fuzz/test_certify_differential.py) pins
verdict and witness equality; this bench pins the *price* of that
equality.
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
from repro.core.certify import OnlineCertifier, certify_history
from repro.core.commutativity import CommutativityRegistry
from repro.core.dependency import (
    IncrementalDependencyEngine,
    linearize_effects,
)
from repro.core.extension import extend_system
from repro.core.judge import check_history, strictness_for
from repro.core.transactions import TransactionSystem
from repro.fuzz.driver import execute_cell

#: per-transaction shape: 5 method calls, each doing 15 page primitives
METHODS = 5
PRIMS = 15
ACTIONS_PER_TXN = METHODS * (1 + PRIMS)

#: history sizes (transactions); 13 -> ~1k actions ... 1250 -> 100k
SIZES = (13, 63, 250, 1250)

#: the ISSUE 8 acceptance gate at the 100k-action point
GATE_ACTIONS = 100_000
GATE_SPEEDUP = 10.0


def build_sparse_history(n_txns: int) -> tuple[TransactionSystem, list]:
    """A conflict-sparse committed history with honest effect stamps.

    Transactions run back to back (every object timeline is append-only
    in commit order — the certifier's fast-path premise), over object
    pools sized proportionally to the history so per-object density stays
    constant: ~5 method actions per mid-level object, ~20 primitives per
    page.  Under the default conflict-all registry every same-object pair
    conflicts, so the exact engine still derives (and lifts) every one of
    those dependencies — the sparsity is in the *interleaving*, which is
    exactly what Vbox-style certification exploits.
    """
    system = TransactionSystem()
    method_pool = max(8, n_txns)
    page_pool = max(32, 4 * n_txns)
    tops = []
    for t in range(n_txns):
        txn = system.transaction(f"T{t}")
        tops.append(txn)
        for m in range(METHODS):
            node = txn.call(f"O{(t * METHODS + m) % method_pool}", "m", (t, m))
            node.seq = system._next_seq()
            base = (t * METHODS + m) * PRIMS
            for p in range(PRIMS):
                leaf = node.call(
                    f"P{(base + p) % page_pool}", "op", (t, m, p)
                )
                leaf.seq = system._next_seq()
    return system, tops


def _shadow_base(system: TransactionSystem) -> TransactionSystem:
    base = TransactionSystem()
    base._seq_counter = system._seq_counter
    return base


def _scale_row(n_txns: int) -> dict:
    system, tops = build_sparse_history(n_txns)
    linearize_effects(system)
    assert not extend_system(system).duplicates
    actions = n_txns * ACTIONS_PER_TXN
    registry = CommutativityRegistry()

    certifier = OnlineCertifier(
        _shadow_base(system), registry, pre_extended=True
    )
    start = time.perf_counter()
    for txn in tops:
        assert certifier.observe_commit(txn)
    fast_s = time.perf_counter() - start
    assert not certifier.escalated, certifier.escalation_reason
    assert certifier.fast_commits == n_txns

    engine = IncrementalDependencyEngine(
        _shadow_base(system),
        registry,
        track_cycles=True,
        linearize=False,
        extend=False,
    )
    start = time.perf_counter()
    for txn in tops:
        engine.append_transaction(txn, extras=())
    exact_s = time.perf_counter() - start
    assert not engine.violated

    return {
        "transactions": n_txns,
        "actions": actions,
        "fast_s": round(fast_s, 4),
        "exact_s": round(exact_s, 4),
        "fast_actions_per_s": round(actions / fast_s, 1),
        "exact_actions_per_s": round(actions / exact_s, 1),
        "speedup": round(exact_s / fast_s, 1),
        "verdicts_identical": True,
    }


def _executed_section() -> dict:
    """One long conflict-sparse fuzz cell, judged both ways end to end."""
    protocol = "page-2pl"
    strict = strictness_for(protocol)
    result = execute_cell(generate(0, GeneratorProfile.long(120)), protocol)

    start = time.perf_counter()
    report = certify_history(result, strict_cross_object=strict)
    certify_s = time.perf_counter() - start
    start = time.perf_counter()
    exact = check_history(result, strict_cross_object=strict)
    oracle_s = time.perf_counter() - start

    assert report.oo_serializable == exact.oo_serializable
    return {
        "protocol": protocol,
        "committed": report.committed,
        "actions": report.actions,
        "fast_commits": report.fast_commits,
        "escalated_commits": report.escalated_commits,
        "certify_s": round(certify_s, 4),
        "oracle_s": round(oracle_s, 4),
        "speedup": round(oracle_s / certify_s, 1),
        "verdicts_identical": True,
    }


def run_certify_bench() -> dict:
    return {
        "label": os.environ.get("BENCH_CERTIFY_LABEL", "pr8"),
        "cpus": multiprocessing.cpu_count(),
        "python": platform.python_version(),
        "certify_scaling": [_scale_row(n) for n in SIZES],
        "certify_executed": _executed_section(),
    }


def _render(entry: dict) -> str:
    rows = [
        [
            f"{row['actions']} actions / {row['transactions']} txns",
            f"{row['fast_actions_per_s']}/s",
            f"{row['exact_actions_per_s']}/s",
            f"x{row['speedup']}",
        ]
        for row in entry["certify_scaling"]
    ]
    executed = entry["certify_executed"]
    rows.append(
        [
            f"executed long cell ({executed['actions']} actions, "
            f"{executed['committed']} commits, {executed['protocol']})",
            f"{executed['certify_s']}s certify",
            f"{executed['oracle_s']}s oracle",
            f"x{executed['speedup']}",
        ]
    )
    return render_table(
        ["history", "certifier", "exact engine", "speedup"],
        rows,
        title=f"C14 — black-box certification, label={entry['label']} "
        f"(cpus={entry['cpus']})",
    )


def test_certify_trajectory(benchmark):
    entry = benchmark.pedantic(run_certify_bench, rounds=1, iterations=1)
    write_trajectory(entry)
    emit("certify", _render(entry))

    gate = next(
        row
        for row in entry["certify_scaling"]
        if row["actions"] == GATE_ACTIONS
    )
    assert gate["verdicts_identical"]
    assert gate["speedup"] >= GATE_SPEEDUP, (
        f"certifier should be >={GATE_SPEEDUP}x the exact engine at "
        f"{GATE_ACTIONS} actions, got x{gate['speedup']}"
    )
    executed = entry["certify_executed"]
    assert executed["verdicts_identical"]
    assert executed["escalated_commits"] == 0, (
        "the long conflict-sparse cell should certify entirely on the "
        f"fast path, escalated {executed['escalated_commits']}"
    )
    assert executed["speedup"] >= 2.0, (
        "end-to-end certification should be >=2x the oracle on the long "
        f"cell, got x{executed['speedup']}"
    )
