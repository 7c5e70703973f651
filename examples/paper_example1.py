"""Walk through the paper's Example 1 (Figure 4), end to end.

Builds the two schedules of Example 1 — commuting inserts (T1/T2) and a
same-key insert/search pair (T3/T4) — and prints the per-object dependency
tables the paper draws as dashed arcs, plus the verdicts of both
serializability criteria.

Run:  python examples/paper_example1.py
"""

from repro.analysis.reporting import render_table
from repro.core import analyze_system
from repro.core.serializability import conventional_baseline
from repro.scenarios import scenario_commuting_inserts, scenario_same_key_conflict


def show(title, build):
    scenario = build()
    verdict, schedules = analyze_system(scenario.system, scenario.registry)
    print(f"\n--- {title} ---")
    print(scenario.description)
    print()
    print(scenario.system.pretty())
    print()
    for oid in ("Page4712", "Leaf11", "BpTree"):
        print(schedules[oid].describe())
    conventional = conventional_baseline(scenario.system).constraints
    rows = [
        ["conventional", sorted(conventional)],
        ["oo-serializability", sorted(verdict.top_order_constraints)],
    ]
    print()
    print(render_table(["criterion", "top-level ordering constraints"], rows))
    print(f"oo-serializable: {verdict.oo_serializable}, "
          f"serial order: {verdict.serial_order}")


def main() -> None:
    show("Scenario A — T1 insert(DBMS), T2 insert(DBS)", scenario_commuting_inserts)
    show("Scenario B — T3 insert(DBS), T4 search(DBS)", scenario_same_key_conflict)
    print(
        "\nScenario A: the page-level dependency stops at the commuting leaf "
        "inserts — no top-level constraint.\nScenario B: the same key "
        "conflicts at every level — the dependency reaches the top."
    )


if __name__ == "__main__":
    main()
