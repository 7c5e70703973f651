"""Unit tests for Definitions 12-16 and the conventional baseline."""

import pytest

from repro.core import analyze_system, extend_system, is_virtual
from repro.core.serializability import (
    conventional_baseline,
    equivalent,
    judge_object,
)
from repro.core.transactions import TransactionSystem
from repro.scenarios import (
    encyclopedia_registry,
    example4_system,
    scenario_commuting_inserts,
    scenario_same_key_conflict,
)


class TestExample1Verdicts:
    def test_commuting_inserts_oo_serializable(self):
        scenario = scenario_commuting_inserts()
        verdict, _ = analyze_system(scenario.system, scenario.registry)
        assert verdict.oo_serializable
        assert verdict.top_order_constraints == set()
        assert verdict.serial_order is not None

    def test_same_key_conflict_still_serializable_but_constrained(self):
        scenario = scenario_same_key_conflict()
        verdict, _ = analyze_system(scenario.system, scenario.registry)
        assert verdict.oo_serializable
        assert verdict.top_order_constraints == {("T3", "T4")}
        assert verdict.serial_order == ["T3", "T4"]

    def test_oo_constraints_are_a_subset_of_conventional(self):
        for build in (scenario_commuting_inserts, scenario_same_key_conflict):
            scenario = build()
            verdict, _ = analyze_system(scenario.system, scenario.registry)
            conventional = conventional_baseline(scenario.system).constraints
            assert verdict.top_order_constraints <= conventional

    def test_headline_claim_fewer_constraints(self):
        scenario = scenario_commuting_inserts()
        verdict, _ = analyze_system(scenario.system, scenario.registry)
        conventional = conventional_baseline(scenario.system).constraints
        assert len(verdict.top_order_constraints) < len(conventional)


class TestExample4:
    def test_consistent_variant_is_oo_serializable(self):
        scenario = example4_system()
        verdict, _ = analyze_system(scenario.system, scenario.registry)
        assert verdict.oo_serializable
        assert verdict.serial_order == ["T1", "T2", "T3", "T4"]

    def test_consistent_variant_constraints(self):
        scenario = example4_system()
        verdict, _ = analyze_system(scenario.system, scenario.registry)
        assert verdict.top_order_constraints == {
            ("T1", "T2"),
            ("T1", "T4"),
            ("T2", "T3"),
            ("T2", "T4"),
        }

    def test_added_dependencies_recorded_at_both_objects(self):
        scenario = example4_system()
        _, schedules = analyze_system(scenario.system, scenario.registry)
        # Item8's callers live on Enc and LinkedList: the write->read
        # dependency must appear in both objects' added relations.
        for oid in ("Enc", "LinkedList"):
            added = schedules[oid].added_dep.edges
            assert added, f"expected added dependencies at {oid}"

    def test_anomalous_variant_rejected_by_closure(self):
        scenario = example4_system(anomalous=True)
        verdict, _ = analyze_system(scenario.system, scenario.registry)
        assert not verdict.oo_serializable
        assert ("T2", "T4") in verdict.top_order_constraints
        assert ("T4", "T2") in verdict.top_order_constraints

    def test_anomalous_variant_accepted_by_literal_reading(self):
        scenario = example4_system(anomalous=True)
        verdict, _ = analyze_system(
            scenario.system, scenario.registry, propagate_cross_object=False
        )
        assert verdict.oo_serializable  # the documented Definition 15/16 gap

    def test_anomalous_variant_not_conventionally_serializable(self):
        scenario = example4_system(anomalous=True)
        assert not conventional_baseline(scenario.system).serializable

    def test_describe_mentions_every_object(self):
        scenario = example4_system()
        verdict, _ = analyze_system(scenario.system, scenario.registry)
        text = verdict.describe()
        for oid in ("Enc", "BpTree", "Leaf11", "Item8"):
            assert oid in text
        assert "system oo-serializable: True" in text


class TestJudgeObject:
    def test_verdict_fields_for_clean_schedule(self):
        scenario = scenario_commuting_inserts()
        _, schedules = analyze_system(scenario.system, scenario.registry)
        verdict = judge_object(schedules["Page4712"])
        assert verdict.oid == "Page4712"
        assert verdict.conform
        assert verdict.action_dep_acyclic
        assert verdict.serial_equivalent_exists
        assert verdict.combined_acyclic
        assert verdict.oo_serializable
        assert verdict.action_cycle is None

    def test_cycle_witness_reported(self):
        system = TransactionSystem()
        t1 = system.transaction("T1")
        t2 = system.transaction("T2")
        # build a write/write ping-pong on one page: w1 < w2' < w1' < w2
        a1 = t1.call("Page1", "write")
        b1 = t2.call("Page1", "write")
        a2 = t1.call("Page1", "write")
        b2 = t2.call("Page1", "write")
        system.order_primitives([a1, b1, a2, b2])
        sched = analyze_system(system, encyclopedia_registry())[1]["Page1"]
        verdict = judge_object(sched)
        assert not verdict.serial_equivalent_exists
        assert verdict.top_cycle is not None


class TestEquivalence:
    def test_schedule_equivalent_to_itself(self):
        scenario = scenario_commuting_inserts()
        _, schedules = analyze_system(scenario.system, scenario.registry)
        assert equivalent(schedules["Page4712"], schedules["Page4712"])

    def test_different_interleavings_same_dependencies_are_equivalent(self):
        # Two executions of the commuting scenario with opposite page orders
        # have *different* txn deps at the page (direction flips) — but the
        # re-executed same order is equivalent by labels.
        first = scenario_commuting_inserts()
        second = scenario_commuting_inserts()
        _, s1 = analyze_system(first.system, first.registry)
        _, s2 = analyze_system(second.system, second.registry)
        assert equivalent(s1["Page4712"], s2["Page4712"])
        assert equivalent(s1["Leaf11"], s2["Leaf11"])

    def test_opposite_order_is_not_equivalent_at_the_page(self):
        first = scenario_commuting_inserts()
        _, s1 = analyze_system(first.system, first.registry)

        second = scenario_commuting_inserts()
        # flip the page-level interleaving: T2 before T1
        prims = sorted(
            (a for a in second.system.all_actions() if a.is_primitive),
            key=lambda a: a.seq,
        )
        t2_first = [p for p in prims if p.top == "T2"] + [
            p for p in prims if p.top == "T1"
        ]
        second.system.order_primitives(t2_first)
        _, s2 = analyze_system(second.system, second.registry)
        assert not equivalent(s1["Page4712"], s2["Page4712"])


class TestConventionalBaseline:
    def test_serial_history_is_serializable(self):
        system = TransactionSystem()
        t1 = system.transaction("T1")
        t2 = system.transaction("T2")
        t1.call("Page1", "write")
        t1.call("Page2", "write")
        t2.call("Page1", "write")
        t2.call("Page2", "write")
        assert conventional_baseline(system).serializable

    def test_write_cycle_is_not_serializable(self):
        system = TransactionSystem()
        t1 = system.transaction("T1")
        t2 = system.transaction("T2")
        a = t1.call("Page1", "write")
        b = t2.call("Page2", "write")
        c = t1.call("Page2", "write")
        d = t2.call("Page1", "write")
        system.order_primitives([a, b, c, d])
        assert not conventional_baseline(system).serializable

    def test_reads_do_not_conflict(self):
        system = TransactionSystem()
        t1 = system.transaction("T1")
        t2 = system.transaction("T2")
        a = t1.call("Page1", "read")
        b = t2.call("Page1", "read")
        system.order_primitives([a, b])
        assert conventional_baseline(system).constraints == set()

    def test_intra_transaction_pairs_ignored(self):
        system = TransactionSystem()
        t1 = system.transaction("T1")
        t1.call("Page1", "write")
        t1.call("Page1", "write")
        assert conventional_baseline(system).constraints == set()

    def test_only_primitive_actions_considered(self):
        system = TransactionSystem()
        t1 = system.transaction("T1")
        outer = t1.call("Doc", "edit")  # non-primitive wrapper
        outer.call("Page1", "write")
        t2 = system.transaction("T2")
        t2.call("Doc", "edit").call("Page2", "write")
        # the Doc.edit wrappers are not primitive; no shared page -> no edge
        assert conventional_baseline(system).constraints == set()

    def test_extension_does_not_move_the_baseline(self):
        # T1's O.leaf has a call ancestor on O, so Definition 5 moves it to
        # O′ and hangs virtual duplicates of O's other actions off them.
        system = TransactionSystem()
        t1 = system.transaction("T1")
        t2 = system.transaction("T2")
        moved = t1.call("O", "outer").call("Q", "x").call("O", "leaf")
        t1_page = t1.call("P", "write")
        t2_outer = t2.call("O", "outer")
        t2_page = t2_outer.call("P", "write")
        t2_leaf = t2.call("O", "leaf")
        system.order_primitives([moved, t1_page, t2_page, t2_leaf])
        before = conventional_baseline(system)
        assert before.constraints == {("T1", "T2")}
        assert before.pairs == 2  # P: write/write, O: leaf/leaf

        extension = extend_system(system)
        assert extension.moved == [moved] and is_virtual(moved.obj)
        assert not t2_leaf.is_primitive  # it now calls its duplicate on O′
        # T2's O.outer duplicate on O′ is stamped before the moved leaf:
        # counted as an access, it would order T2 before T1.
        assert conventional_baseline(system) == before
        assert before.serializable


def test_analyze_system_skips_extension_on_request():
    scenario = scenario_commuting_inserts()
    verdict, schedules = analyze_system(
        scenario.system, scenario.registry, extend=False
    )
    assert verdict.oo_serializable
    assert all("′" not in oid for oid in schedules)
