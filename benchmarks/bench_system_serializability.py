"""Experiment C4 — Section 5: system-level oo-serializability.

Scenarios where correctness is decided only by the *system*-level machinery
(added dependencies and the cross-object closure), not by any single object
schedule:

1. Example 4, consistent interleaving — oo-serializable, with added
   dependencies recorded at Enc and LinkedList;
2. Example 4, anomalous interleaving — T4's scan between T2's insert and
   change: rejected by the closure, missed by the literal Definition 15/16
   reading (the documented gap);
3. a two-object cross dependency cycle (X orders T1<T2, Y orders T2<T1
   through mid-level callers) — same story.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import emit

from repro.analysis.reporting import render_table
from repro.core import analyze_system
from repro.core.commutativity import CommutativityRegistry, ReadWriteCommutativity
from repro.core.serializability import conventional_baseline
from repro.core.transactions import TransactionSystem
from repro.scenarios import example4_system


def cross_object_cycle():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    mid1 = t1.call("M1", "work")
    x1 = mid1.call("X", "write")
    y1 = t1.call("Y", "write")
    t2 = system.transaction("T2")
    y2 = t2.call("Y", "write")
    mid2 = t2.call("M2", "work")
    x2 = mid2.call("X", "write")
    system.order_primitives([x1, y2, y1, x2])
    registry = CommutativityRegistry(default=ReadWriteCommutativity())
    return system, registry


def build_scenarios():
    rows = []
    verdicts = {}
    for name, build in (
        ("example4/consistent", lambda: _example4(False)),
        ("example4/anomalous", lambda: _example4(True)),
        ("cross-object-cycle", cross_object_cycle),
    ):
        system, registry = build()
        conventional = conventional_baseline(system).serializable
        closure_verdict, _ = analyze_system(system, registry)
        system2, registry2 = build()
        literal_verdict, _ = analyze_system(
            system2, registry2, propagate_cross_object=False
        )
        rows.append(
            [
                name,
                conventional,
                literal_verdict.oo_serializable,
                closure_verdict.oo_serializable,
            ]
        )
        verdicts[name] = (
            conventional,
            literal_verdict.oo_serializable,
            closure_verdict.oo_serializable,
        )
    table = render_table(
        ["scenario", "conventional", "oo (literal Def15/16)", "oo (closure)"],
        rows,
        title="C4 — system-level serializability verdicts",
    )
    return table, verdicts


def _example4(anomalous: bool):
    scenario = example4_system(anomalous=anomalous)
    return scenario.system, scenario.registry


def test_system_serializability(benchmark):
    table, verdicts = benchmark(build_scenarios)
    emit("system_serializability", table)
    assert verdicts["example4/consistent"] == (True, True, True)
    # the anomaly: conventionally non-serializable, caught by the closure,
    # missed by the literal reading (DESIGN.md, reconstruction decisions)
    assert verdicts["example4/anomalous"] == (False, True, False)
    assert verdicts["cross-object-cycle"] == (False, True, False)
