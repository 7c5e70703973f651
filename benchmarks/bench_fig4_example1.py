"""Experiment F4 — Example 1 / Figure 4: dependency inheritance.

Scenario A (T1/T2): two inserts of different keys land on the same leaf
page; the page-level dependency is inherited to the leaf, stops at the
commuting leaf inserts, and imposes no top-level order.

Scenario B (T3/T4): insert and search of the *same* key; the dependency is
inherited up to the top-level transactions.

The bench prints the per-object dependency tables (the dashed arcs of
Figure 4) and the resulting top-level constraints under both criteria.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import emit

from repro.analysis.reporting import render_table
from repro.core import analyze_system
from repro.core.serializability import conventional_baseline
from repro.scenarios import scenario_commuting_inserts, scenario_same_key_conflict


def analyze_scenario(build):
    scenario = build()
    verdict, schedules = analyze_system(scenario.system, scenario.registry)
    return scenario, verdict, schedules


def build_figure4_report() -> tuple[str, dict]:
    sections = []
    facts = {}
    for name, build in (
        ("A: T1 insert(DBMS) / T2 insert(DBS) — commuting keys", scenario_commuting_inserts),
        ("B: T3 insert(DBS) / T4 search(DBS) — same key", scenario_same_key_conflict),
    ):
        scenario, verdict, schedules = analyze_scenario(build)
        rows = []
        for oid in ("Page4712", "Leaf11", "BpTree"):
            sched = schedules[oid]
            deps = "; ".join(
                f"{src.label} -> {dst.label}"
                for src, dst in sorted(
                    sched.txn_dep.edges, key=lambda e: (e[0].aid, e[1].aid)
                )
            )
            rows.append([oid, deps or "(none — inheritance stopped)"])
        conv = sorted(conventional_baseline(scenario.system).constraints)
        oo = sorted(verdict.top_order_constraints)
        rows.append(["top-level (conventional)", str(conv)])
        rows.append(["top-level (oo)", str(oo)])
        sections.append(
            render_table(
                ["object", "inherited transaction dependencies"],
                rows,
                title=f"Scenario {name}",
            )
        )
        facts[name[0]] = (conv, oo, verdict.oo_serializable)
    return "\n\n".join(sections), facts


def test_fig4_example1(benchmark):
    report, facts = benchmark(build_figure4_report)
    emit("fig4_example1", report)
    conv_a, oo_a, ok_a = facts["A"]
    conv_b, oo_b, ok_b = facts["B"]
    # Example 1's stated outcomes:
    assert conv_a == [("T1", "T2")] and oo_a == []  # "too restrictive"
    assert conv_b == [("T3", "T4")] and oo_b == [("T3", "T4")]
    assert ok_a and ok_b
