"""Unit tests for transaction systems (Definitions 4 and 6)."""

import pytest

from repro.core.identifiers import SYSTEM_OBJECT
from repro.core.transactions import TransactionSystem
from repro.errors import ModelError


def test_transaction_roots_live_on_system_object():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    assert t1.root.obj == SYSTEM_OBJECT
    assert t1.root.aid == (1,)
    assert system.transaction().label == "T2"  # auto-label continues


def test_duplicate_labels_rejected():
    system = TransactionSystem()
    system.transaction("T1")
    with pytest.raises(ModelError):
        system.transaction("T1")


def test_adopt_is_idempotent_and_refuses_a_second_tree_under_one_label():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    system.adopt(t1)  # already a member: no second entry
    assert system.tops == [t1]
    other = TransactionSystem()
    other.adopt(t1)  # a projection sharing the tree
    assert other.top("T1") is t1
    with pytest.raises(ModelError):
        other.transaction("T1")
    with pytest.raises(ModelError):
        system.adopt(TransactionSystem().transaction("T1"))


def test_beginning_a_transaction_does_not_scan_the_earlier_ones():
    class CountingLabel(str):
        compared = 0

        def __eq__(self, other):
            CountingLabel.compared += 1
            return str.__eq__(self, other)

        __hash__ = str.__hash__

    system = TransactionSystem()
    for n in range(10_000):
        system.transaction(CountingLabel(f"txn#{n}"))
    CountingLabel.compared = 0
    system.transaction(CountingLabel("txn#10000"))
    assert CountingLabel.compared <= 2  # hash collisions only, not 10 000
    with pytest.raises(ModelError):
        system.transaction(CountingLabel("txn#77"))


def test_top_lookup():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    assert system.top("T1") is t1
    with pytest.raises(ModelError):
        system.top("T9")


def test_objects_contains_accessed_and_declared():
    system = TransactionSystem()
    system.declare_object("Ghost")
    txn = system.transaction("T1")
    txn.call("Enc", "insertItem", ("k",))
    assert {"Ghost", "Enc", SYSTEM_OBJECT} <= system.objects


def test_seq_is_global_across_transactions():
    system = TransactionSystem()
    a = system.transaction("T1").call("O", "a")
    b = system.transaction("T2").call("O", "b")
    assert b.seq > a.seq


def test_actions_on_returns_seq_order():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    t2 = system.transaction("T2")
    first = t1.call("O", "x")
    second = t2.call("O", "y")
    third = t1.call("O", "z")
    assert system.actions_on("O") == [first, second, third]


def test_primitive_actions_on():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    outer = t1.call("O", "outer")
    outer.call("P", "inner")
    leaf = t1.call("O", "leaf")
    assert system.primitive_actions_on("O") == [leaf]


def test_transactions_on_are_direct_callers():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    tree_action = t1.call("BpTree", "insert", ("k",))
    tree_action.call("Leaf11", "insert", ("k",))
    callers = system.transactions_on("Leaf11")
    assert callers == [tree_action]
    # the root is the caller for actions the transaction sends directly
    assert system.transactions_on("BpTree") == [t1.root]


def test_transactions_on_deduplicates_callers():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    leaf_insert = t1.call("Leaf11", "insert", ("k",))
    leaf_insert.call("Page1", "read")
    leaf_insert.call("Page1", "write")
    assert system.transactions_on("Page1") == [leaf_insert]


def test_order_primitives_assigns_listed_order():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    t2 = system.transaction("T2")
    a = t1.call("P", "read")
    b = t2.call("P", "write")
    system.order_primitives([b, a])
    assert b.seq < a.seq
    assert system.actions_on("P") == [b, a]


def test_order_primitives_rejects_non_primitive():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    outer = t1.call("O", "outer")
    outer.call("P", "inner")
    with pytest.raises(ModelError):
        system.order_primitives([outer])


def test_all_actions_spans_transactions():
    system = TransactionSystem()
    system.transaction("T1").call("A", "x")
    system.transaction("T2").call("B", "y")
    methods = {a.method for a in system.all_actions()}
    assert {"T1", "T2", "x", "y"} == methods


def test_pretty_renders_all_tops():
    system = TransactionSystem()
    system.transaction("T1").call("A", "x")
    system.transaction("T2")
    text = system.pretty()
    assert "T1" in text and "T2" in text and "A.x()" in text
