"""Unit tests for actions, call trees, precedence and processes (Defs 1-3, 9)."""

import pytest

from repro.core.actions import (
    ActionNode,
    Invocation,
    lowest_common_ancestor,
    same_process,
)
from repro.core.transactions import TransactionSystem
from repro.errors import ModelError


@pytest.fixture
def tree():
    system = TransactionSystem()
    txn = system.transaction("T1")
    a = txn.call("O1", "a")
    b = txn.call("O2", "b")
    a1 = a.call("P1", "a1")
    a2 = a.call("P2", "a2")
    return txn, a, b, a1, a2


def test_call_builds_hierarchical_numbering(tree):
    txn, a, b, a1, a2 = tree
    assert txn.root.aid == (1,)
    assert a.aid == (1, 1)
    assert b.aid == (1, 2)
    assert a1.aid == (1, 1, 1)
    assert a2.aid == (1, 1, 2)


def test_top_label_propagates(tree):
    _, a, b, a1, _ = tree
    assert a.top == b.top == a1.top == "T1"


def test_primitive_actions_are_leaves(tree):
    txn, a, b, a1, a2 = tree
    assert not a.is_primitive
    assert b.is_primitive
    assert a1.is_primitive and a2.is_primitive


def test_sequential_children_get_precedence(tree):
    txn, a, b, a1, a2 = tree
    assert a1.precedes_sibling(a2)
    assert not a2.precedes_sibling(a1)
    assert a.precedes_sibling(b)


def test_parallel_child_is_unordered():
    system = TransactionSystem()
    txn = system.transaction("T1")
    first = txn.call("O1", "first")
    second = txn.call("O2", "second", parallel=True)
    assert not first.ordered_with_sibling(second)


def test_add_precedence_between_siblings():
    system = TransactionSystem()
    txn = system.transaction("T1")
    first = txn.call("O1", "first")
    second = txn.call("O2", "second", parallel=True)
    txn.root.add_precedence(second, first)
    assert second.precedes_sibling(first)


def test_add_precedence_rejects_non_siblings(tree):
    txn, a, b, a1, _ = tree
    with pytest.raises(ModelError):
        txn.root.add_precedence(a, a1)


def test_add_precedence_rejects_self(tree):
    txn, a, _, _, _ = tree
    with pytest.raises(ModelError):
        txn.root.add_precedence(a, a)


def test_precedence_closure_is_transitive():
    system = TransactionSystem()
    txn = system.transaction("T1")
    a = txn.call("O", "a")
    b = txn.call("O", "b")
    c = txn.call("O", "c")
    # builder chained a < b < c; closure must give a < c
    assert a.precedes_sibling(c)


def test_calls_and_transitive_calls(tree):
    txn, a, b, a1, _ = tree
    assert txn.root.calls(a)
    assert not txn.root.calls(a1)
    assert txn.root.calls_transitively(a1)
    assert a.calls(a1)
    assert not a.calls_transitively(b)


def test_iter_subtree_and_descendants(tree):
    txn, a, b, a1, a2 = tree
    labels = [node.method for node in txn.root.iter_subtree()]
    assert labels == ["T1", "a", "a1", "a2", "b"]
    assert [n.method for n in a.descendants()] == ["a1", "a2"]


def test_ancestors(tree):
    _, a, _, a1, _ = tree
    assert [n.method for n in a1.ancestors()] == ["a", "T1"]


def test_root_and_depth(tree):
    txn, a, _, a1, _ = tree
    assert a1.root is txn.root
    assert txn.root.depth == 0
    assert a.depth == 1
    assert a1.depth == 2


def test_sibling_index(tree):
    txn, a, b, _, _ = tree
    assert a.sibling_index() == 0
    assert b.sibling_index() == 1
    with pytest.raises(ModelError):
        txn.root.sibling_index()


def test_lowest_common_ancestor(tree):
    txn, a, b, a1, a2 = tree
    assert lowest_common_ancestor(a1, a2) is a
    assert lowest_common_ancestor(a1, b) is txn.root
    assert lowest_common_ancestor(a, a1) is a
    assert lowest_common_ancestor(a1, a1) is a1


def test_lca_across_transactions_is_none():
    system = TransactionSystem()
    t1 = system.transaction("T1")
    t2 = system.transaction("T2")
    x = t1.call("O", "x")
    y = t2.call("O", "y")
    assert lowest_common_ancestor(x, y) is None


class TestSameProcess:
    def test_identical_action(self, tree):
        _, a, _, _, _ = tree
        assert same_process(a, a)

    def test_ancestor_descendant(self, tree):
        _, a, _, a1, _ = tree
        assert same_process(a, a1)
        assert same_process(a1, a)

    def test_sequenced_siblings(self, tree):
        _, a, b, _, _ = tree
        assert same_process(a, b)

    def test_sequenced_cousins(self, tree):
        _, _, b, a1, _ = tree
        # a precedes b, so a's child a1 is sequenced with b.
        assert same_process(a1, b)

    def test_parallel_branches_are_different_processes(self):
        system = TransactionSystem()
        txn = system.transaction("T1")
        left = txn.call("O1", "left")
        right = txn.call("O2", "right", parallel=True)
        child = left.call("P", "child")
        assert not same_process(left, right)
        assert not same_process(child, right)

    def test_different_transactions_are_different_processes(self):
        system = TransactionSystem()
        x = system.transaction("T1").call("O", "x")
        y = system.transaction("T2").call("O", "y")
        assert not same_process(x, y)


def test_invocation_rendering():
    inv = Invocation("Leaf11", "insert", ("DBS",))
    assert str(inv) == "Leaf11.insert('DBS')"


def test_action_label_and_pretty(tree):
    txn, a, _, _, _ = tree
    assert "O1.a()" in a.label
    listing = txn.pretty()
    assert "O1.a()" in listing and "P2.a2()" in listing
    assert listing.splitlines()[0].startswith("$SYSTEM.T1")


def test_explicit_seq_override():
    system = TransactionSystem()
    txn = system.transaction("T1")
    action = txn.call("O", "m", seq=999)
    assert action.seq == 999


def test_standalone_action_node_seq_counter():
    root = ActionNode(aid=(1,), obj="O", method="root", top="T")
    child1 = root.call("P", "one")
    child2 = root.call("P", "two")
    assert child2.seq > child1.seq


def test_primitive_node_allocates_no_container():
    # Committed trees stay in memory for the life of a service: a leaf
    # carries no empty list or set, and no per-instance dict.
    system = TransactionSystem()
    txn = system.transaction("T1")
    leaf = txn.call("P1", "write")
    assert leaf.children == ()
    assert leaf.precedence == frozenset()
    assert not hasattr(leaf, "__dict__")
    # the first child and the first edge allocate the containers
    first = leaf.call("Q", "read")
    assert leaf.children == [first] and leaf.precedence == frozenset()
    second = leaf.call("Q", "read")
    assert leaf.precedence == {(first.aid, second.aid)}
    assert first.precedes_sibling(second)
