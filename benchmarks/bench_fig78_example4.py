"""Experiment F7 — Example 4 / Figures 7-8: the per-object dependency table.

Rebuilds the four top-level transactions (T1 inserts DBMS; T2 inserts DBS
and changes DBMS; T3 searches DBS; T4 reads sequentially) and regenerates
Figure 8: for every object, the transaction dependencies recorded at its
schedule, with the Definition 15 added dependencies marked ``[added]``.

The anomalous interleaving variant (T4's scan slipping between T2's insert
and change) is reported alongside — rejected by the cross-object closure,
wrongly admitted by the literal Definition 15/16 reading (see DESIGN.md).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import emit

from repro.analysis.reporting import render_table
from repro.core import analyze_system
from repro.core.serializability import conventional_baseline
from repro.scenarios import example4_system
from repro.scenarios.example4 import figure8_rows


def build_figure78_report():
    scenario = example4_system()
    verdict, schedules = analyze_system(scenario.system, scenario.registry)
    table = render_table(
        ["object", "schedule dependencies"],
        figure8_rows(schedules),
        title="Figure 8 — dependencies per object (consistent interleaving)",
    )
    conventional = conventional_baseline(scenario.system).serializable
    summary_rows = [["consistent", conventional,
                     verdict.oo_serializable, str(verdict.serial_order)]]

    anomalous = example4_system(anomalous=True)
    verdict_anom, _ = analyze_system(anomalous.system, anomalous.registry)
    literal = example4_system(anomalous=True)
    verdict_literal, _ = analyze_system(
        literal.system, literal.registry, propagate_cross_object=False
    )
    summary_rows.append(
        [
            "anomalous",
            conventional_baseline(anomalous.system).serializable,
            verdict_anom.oo_serializable,
            f"literal Def15/16 verdict: {verdict_literal.oo_serializable}",
        ]
    )
    summary = render_table(
        ["interleaving", "conventional", "oo-serializable", "notes"],
        summary_rows,
        title="Example 4 — verdicts",
    )
    return table + "\n\n" + summary, verdict, verdict_anom


def test_fig78_example4(benchmark):
    report, verdict, verdict_anom = benchmark(build_figure78_report)
    emit("fig78_example4", report)
    assert verdict.oo_serializable
    assert verdict.serial_order == ["T1", "T2", "T3", "T4"]
    # Figure 8's rows, machine-checked:
    assert verdict.top_order_constraints == {
        ("T1", "T2"),
        ("T1", "T4"),
        ("T2", "T3"),
        ("T2", "T4"),
    }
    assert not verdict_anom.oo_serializable
