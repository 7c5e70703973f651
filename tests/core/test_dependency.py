"""Unit tests for dependency inheritance (Axiom 1, Definitions 10-11).

These tests pin down the paper's Example 1 behaviour: the page-level
dependency is inherited to the leaf level, stops at commuting leaf inserts,
and climbs to the top for same-key conflicts.
"""

from repro.core import analyze_system
from repro.core.transactions import TransactionSystem
from repro.scenarios import (
    encyclopedia_registry,
    scenario_commuting_inserts,
    scenario_same_key_conflict,
)


def edges_by_label(graph):
    return {(src.label, dst.label) for src, dst in graph.edges}


class TestBootstrap:
    def test_conflicting_primitives_ordered_by_execution(self):
        system = TransactionSystem()
        w = system.transaction("T1").call("Page1", "write")
        r = system.transaction("T2").call("Page1", "read")
        system.order_primitives([w, r])
        sched = analyze_system(system, encyclopedia_registry())[1]["Page1"]
        assert sched.action_dep.has_edge(w, r)
        assert not sched.action_dep.has_edge(r, w)

    def test_commuting_primitives_get_no_edge(self):
        system = TransactionSystem()
        r1 = system.transaction("T1").call("Page1", "read")
        r2 = system.transaction("T2").call("Page1", "read")
        sched = analyze_system(system, encyclopedia_registry())[1]["Page1"]
        assert not sched.action_dep.has_edge(r1, r2)
        assert not sched.action_dep.has_edge(r2, r1)

    def test_same_transaction_sequential_primitives_commute(self):
        system = TransactionSystem()
        t1 = system.transaction("T1")
        w1 = t1.call("Page1", "write")
        w2 = t1.call("Page1", "write")
        sched = analyze_system(system, encyclopedia_registry())[1]["Page1"]
        # same process: no conflict edge, only the program-precedence edge
        assert sched.action_dep.has_edge(w1, w2)
        assert not sched.txn_dep.edges

    def test_mixed_primitive_nonprimitive_conflict_uses_execution_order(self):
        system = TransactionSystem()
        t1 = system.transaction("T1")
        nonprim = t1.call("Doc", "edit", ("s1",))
        nonprim.call("Page1", "write")
        t2 = system.transaction("T2")
        prim = t2.call("Doc", "edit", ("s1",))  # same section: conflicts
        from repro.core.commutativity import CommutativityRegistry, MatrixCommutativity, ReadWriteCommutativity

        registry = CommutativityRegistry()
        registry.register_prefix("Page", ReadWriteCommutativity())
        registry.register(
            "Doc",
            MatrixCommutativity({("edit", "edit"): lambda a, b: a.args[0] != b.args[0]}),
        )
        sched = analyze_system(system, registry)[1]["Doc"]
        assert sched.action_dep.has_edge(nonprim, prim)


class TestInheritance:
    def test_page_dependency_inherited_to_leaf_level(self):
        scenario = scenario_commuting_inserts()
        _, schedules = analyze_system(scenario.system, scenario.registry)
        leaf1, leaf2 = scenario.leaf_actions
        # the Page4712 txn dep becomes an action dep at Leaf11
        assert schedules["Leaf11"].action_dep.has_edge(leaf1, leaf2)

    def test_inheritance_stops_at_commuting_actions(self):
        scenario = scenario_commuting_inserts()
        _, schedules = analyze_system(scenario.system, scenario.registry)
        # the leaf inserts commute (different keys): no txn dep at Leaf11,
        # nothing propagates to BpTree
        assert schedules["Leaf11"].txn_dep.edges == set()
        assert schedules["BpTree"].action_dep.edges == set()
        assert schedules["BpTree"].txn_dep.edges == set()

    def test_conflicting_actions_propagate_to_top(self):
        scenario = scenario_same_key_conflict()
        verdict, schedules = analyze_system(scenario.system, scenario.registry)
        leaf3, leaf4 = scenario.leaf_actions
        assert schedules["Leaf11"].txn_dep.edges  # insert vs search conflict
        assert schedules["BpTree"].action_dep.edges
        # the dependency reaches the top-level transactions
        assert ("T3", "T4") in verdict.top_order_constraints

    def test_commuting_case_imposes_no_top_constraint(self):
        scenario = scenario_commuting_inserts()
        verdict, _ = analyze_system(scenario.system, scenario.registry)
        assert verdict.top_order_constraints == set()

    def test_dependency_direction_follows_execution_order(self):
        scenario = scenario_same_key_conflict()
        verdict, _ = analyze_system(scenario.system, scenario.registry)
        # T3's write ran first, so T3 must precede T4 — not the reverse.
        assert ("T3", "T4") in verdict.top_order_constraints
        assert ("T4", "T3") not in verdict.top_order_constraints


class TestCrossObjectClosure:
    def _system(self):
        """T1 updates X deep and Y shallow; T2 the other way around, so the
        dependencies meet only through cross-object pairs."""
        from repro.core.commutativity import CommutativityRegistry, ReadWriteCommutativity

        system = TransactionSystem()
        t1 = system.transaction("T1")
        mid1 = t1.call("M1", "work")
        w_x1 = mid1.call("X", "write")
        w_y1 = t1.call("Y", "write")
        t2 = system.transaction("T2")
        w_y2 = t2.call("Y", "write")
        mid2 = t2.call("M2", "work")
        w_x2 = mid2.call("X", "write")
        system.order_primitives([w_x1, w_y2, w_y1, w_x2])
        registry = CommutativityRegistry()
        registry.register("X", ReadWriteCommutativity())
        registry.register("Y", ReadWriteCommutativity())
        registry.register_prefix("M", ReadWriteCommutativity())
        return system, registry

    def test_closure_detects_cross_object_cycle(self):
        system, registry = self._system()
        verdict, _ = analyze_system(system, registry)
        # X orders T1 < T2 (via the mid-level callers), Y orders T2 < T1.
        assert not verdict.oo_serializable

    def test_literal_mode_misses_it(self):
        system, registry = self._system()
        verdict, _ = analyze_system(system, registry, propagate_cross_object=False)
        # Documented gap of the literal Definition 15/16 reading: the
        # call-depth asymmetry hides the contradiction from the per-object
        # action-level acyclicity checks.
        assert verdict.oo_serializable
