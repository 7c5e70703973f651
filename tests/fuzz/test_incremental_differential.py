"""Differential suite: the dependency engine is byte-identical to the
batch reference fixpoint (:mod:`tests.reference_analysis`).

Two layers of equivalence, over fuzz-generated histories under every
protocol:

1. **One-shot identity** — ``analyze_system`` produces the same verdict,
   the same per-object relations *in the same iteration order*, the same
   first-reason-wins provenance and the same rendered descriptions as the
   reference.  This is what keeps every pinned report byte tied to the
   paper's fixpoint rather than to the engine's evaluation order.
2. **Prefix-append agreement** — appending committed transactions one at a
   time to an :class:`IncrementalDependencyEngine` (the online certifier's
   exact path) yields, after every prefix, the verdict a from-scratch
   reference analysis of that prefix's projection gives.

The certifier's own boolean is held to ``check_history`` by
``tests/fuzz/test_certify_differential.py``.
"""

import random

import pytest

from repro.catalog import generate
from repro.core.certify import OnlineCertifier
from repro.core.commutativity import (
    CommutativityRegistry,
    MatrixCommutativity,
    ReadWriteCommutativity,
)
from repro.core.dependency import IncrementalDependencyEngine
from repro.core.identifiers import is_virtual
from repro.core.judge import Ablation, strictness_for
from repro.core.serializability import analyze_system
from repro.core.transactions import TransactionSystem
from repro.errors import ReproError
from repro.fuzz.driver import FUZZ_PROTOCOLS, execute_cell
from repro.oodb.trace import committed_projection
from tests.reference_analysis import reference_analyze_system

#: ≥50 seeds per protocol (ISSUE 4 acceptance criterion)
SEEDS = range(50)


def _labeled_edges(graph):
    return [(src.label, dst.label) for src, dst in graph.iter_edges()]


def _rendered_reasons(sched):
    return {
        key: sched.explain(key[0], _Aid(key[1]), _Aid(key[2]))
        for key in sched.reasons
    }


class _Aid:
    """Adapter: ``explain`` only reads ``.aid`` off its endpoints."""

    def __init__(self, aid):
        self.aid = aid


def _analyze_both(result, *, strict, ablation=None):
    outputs = []
    for analyze in (reference_analyze_system, analyze_system):
        registry = result.db.commutativity_registry()
        if ablation is not None:
            registry = ablation.apply(registry)
        projection = committed_projection(
            result.db.system, result.committed_labels
        )
        outputs.append(
            analyze(projection, registry, propagate_cross_object=strict)
        )
    return outputs


def _assert_identical(batch_out, incr_out):
    (vb, sb), (vi, si) = batch_out, incr_out
    assert vb.oo_serializable == vi.oo_serializable
    assert vb.describe() == vi.describe()
    assert sorted(vb.global_top_graph.edges) == sorted(vi.global_top_graph.edges)
    assert set(sb) == set(si)
    for oid in sb:
        A, B = sb[oid], si[oid]
        assert [a.label for a in A.actions] == [b.label for b in B.actions]
        assert [a.label for a in A.transactions] == [
            b.label for b in B.transactions
        ]
        # Ordered equality: identical iteration order, not just identical
        # edge sets — downstream cycle witnesses depend on it.
        assert _labeled_edges(A.action_dep) == _labeled_edges(B.action_dep)
        assert _labeled_edges(A.txn_dep) == _labeled_edges(B.txn_dep)
        assert _labeled_edges(A.added_dep) == _labeled_edges(B.added_dep)
        assert _rendered_reasons(A) == _rendered_reasons(B)
        assert A.describe(verbose=True) == B.describe(verbose=True)
        VA, VB = vb.object_verdicts[oid], vi.object_verdicts[oid]
        assert (VA.action_cycle, VA.top_cycle) == (VB.action_cycle, VB.top_cycle)


@pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
def test_one_shot_identity(protocol):
    strict = strictness_for(protocol)
    checked = 0
    for seed in SEEDS:
        spec = generate(seed)
        try:
            result = execute_cell(spec, protocol)
        except ReproError:
            continue
        batch_out, incr_out = _analyze_both(result, strict=strict)
        _assert_identical(batch_out, incr_out)
        checked += 1
    assert checked >= 40  # the generator rarely produces un-runnable specs


@pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
def test_one_shot_identity_under_ablation(protocol):
    """Same identity on *violating* histories: ablations force cycles, so
    this leg exercises the cycle-witness and reason paths."""
    strict = strictness_for(protocol)
    violations = 0
    for seed in range(20):
        spec = generate(seed)
        ablation = Ablation(object_name=spec.leaf_objects[0].name)
        try:
            result = execute_cell(spec, protocol)
        except ReproError:
            continue
        batch_out, incr_out = _analyze_both(
            result, strict=strict, ablation=ablation
        )
        _assert_identical(batch_out, incr_out)
        violations += not batch_out[0].oo_serializable
    # Not every protocol/seed yields a violation; the suite as a whole does.


@pytest.mark.parametrize("protocol", ["multilevel", "optimistic-oo"])
def test_prefix_appends_agree_with_batch(protocol):
    """The certifier's shape: committed transactions appended one at a time.

    After each append, the engine's boolean must equal a from-scratch
    reference analysis of the same prefix — including the cases where the extension
    hangs virtual duplicates off earlier (already analyzed) trees.
    """
    strict = strictness_for(protocol)
    for seed in range(8):
        spec = generate(seed)
        try:
            result = execute_cell(spec, protocol)
        except ReproError:
            continue
        system = result.db.system
        committed = [t for t in system.tops if t.label in result.committed_labels]
        if not committed:
            continue
        engine = IncrementalDependencyEngine(
            committed_projection(system, set()),
            result.db.commutativity_registry(),
            propagate_cross_object=strict,
            track_cycles=True,
        )
        prefix: set[str] = set()
        for txn in committed:
            engine.append_transaction(txn)
            prefix.add(txn.label)
            verdict, _ = reference_analyze_system(
                committed_projection(system, prefix),
                result.db.commutativity_registry(),
                propagate_cross_object=strict,
            )
            assert engine.violated == (not verdict.oo_serializable), (
                protocol,
                seed,
                sorted(prefix),
            )


# -- hand-built trees: the branches executed histories never reach ----------
#
# Executed trees never carry real unordered siblings, so on fuzz traffic
# the engine's "same tree, not program-ordered, may conflict" branch only
# ever sees Definition 5 virtual duplicates.  These trees put
# ``parallel=True`` siblings that conflict on one object (primitive and
# non-primitive members, lifting to distinct callers) next to a self-call
# cycle that forces the extension, and vary the primitives' execution
# order so both verdicts occur.


def _hand_registry():
    registry = CommutativityRegistry()  # unknown objects: everything conflicts
    registry.register("X", ReadWriteCommutativity())
    registry.register("M", MatrixCommutativity({("inc", "inc"): True}))
    return registry


def _hand_built(order_seed):
    """Three trees with conflicting unordered siblings and a call cycle."""
    system = TransactionSystem()
    t1 = system.transaction("T1")
    left = t1.call("M", "inc")
    right = t1.call("M", "set", parallel=True)  # unordered with ``left``
    left.call("X", "write")
    right.call("X", "write")
    right.call("X", "read")
    scan = t1.call("X", "scan", parallel=True)  # non-primitive sibling on X
    scan.call("P", "read")
    t1.call("X", "write", parallel=True)

    t2 = system.transaction("T2")
    t2.call("M", "inc").call("X", "read")
    t2.call("X", "write", parallel=True)
    outer = t2.call("O", "a")
    outer.call("P", "b").call("O", "c")  # O.a reaches O.c through P
    outer.call("O", "d", parallel=True)

    t3 = system.transaction("T3")
    t3.call("O", "a").call("X", "write")
    t3.call("M", "set", parallel=True).call("P", "write")

    # Even seeds run the trees one after another (each in program order),
    # odd seeds interleave every primitive at random.
    rng = random.Random(order_seed)
    trees = system.tops
    rng.shuffle(trees)
    primitives = [a for t in trees for a in t.actions() if a.is_primitive]
    if order_seed % 2:
        rng.shuffle(primitives)
    system.order_primitives(primitives)
    return system


@pytest.mark.parametrize("strict", [True, False])
def test_hand_built_unordered_siblings_identity(strict):
    verdicts = set()
    for order_seed in range(12):
        outputs = [
            analyze(
                _hand_built(order_seed),
                _hand_registry(),
                propagate_cross_object=strict,
            )
            for analyze in (reference_analyze_system, analyze_system)
        ]
        _assert_identical(*outputs)
        verdict, schedules = outputs[1]
        verdicts.add(verdict.oo_serializable)
        # the trees do reach the branch: a same-tree Axiom 1 edge between
        # real (not virtual) actions, and the extension's virtual object
        assert any(
            src.top == dst.top
            and not (src.virtual or dst.virtual)
            and sched.explain("action", src, dst).startswith("Axiom 1")
            for sched in schedules.values()
            for src, dst in sched.action_dep.iter_edges()
        )
        assert any(is_virtual(oid) for oid in schedules)
    assert verdicts == {True, False}


def test_hand_built_appends_agree_with_reference():
    """The certifier's shape on the same trees: one tree at a time, each
    re-stamped and extended as it arrives, then the reference's verdict."""
    for order_seed in range(12):
        system = _hand_built(order_seed)
        engine = IncrementalDependencyEngine(
            TransactionSystem(), _hand_registry(), track_cycles=True
        )
        for txn in system.tops:
            engine.append_transaction(txn)
        verdict, _ = reference_analyze_system(
            _hand_built(order_seed), _hand_registry()
        )
        assert engine.violated == (not verdict.oo_serializable), order_seed


# -- the lean path's exits ----------------------------------------------------
#
# The boolean engine integrates a primitive-only object per caller pair and
# records no ``<·`` for it (DESIGN §6, decision 16).  In each tree set below
# the violating order closes a cycle that lives only in object X's ``<·``:
# no caller dependency repeats it.  The engine sees it only if it
# materializes X when (a) the program orders a same-tree pair against its
# stamps, (b) a method action joins X, (c) as (b), where the joining tree's
# call cycle also hangs Definition 5 duplicates off X's actions, so that
# their conflicts reach X by Definition 11.  The benign order has no cycle.


def _lean_registry():
    registry = CommutativityRegistry()
    registry.register("Y", ReadWriteCommutativity())
    registry.register("M", MatrixCommutativity({}, default=True))
    # p and q conflict with themselves and each other; m conflicts only
    # with p, n only with q; s commutes with everything.
    commuting = [("m", "q"), ("n", "p"), ("m", "n")]
    commuting += [(method, "s") for method in "mnpqs"]
    registry.register("X", MatrixCommutativity(dict.fromkeys(commuting, True)))
    return registry


def _lean_trees(case, order):
    """The trees of ``case`` with their primitives stamped in ``order``."""
    system = TransactionSystem()
    prims = {}
    if case == "a":
        prims["c"] = system.transaction("T1").call("X", "p")
        caller = system.transaction("T2").call("M", "w")
        prims["a1"] = caller.call("X", "p")
        prims["a2"] = caller.call("X", "p")  # program: a1 before a2
        prims["b"] = caller.call("X", "p", parallel=True)
        system.order_primitives(prims[name] for name in order)
        return system
    caller = system.transaction("T1").call("M", "w")
    prims["a"] = caller.call("X", "p")
    prims["b"] = caller.call("X", "q")  # program: a before b
    if case == "b":
        m1 = system.transaction("T2").call("X", "m")
        m2 = system.transaction("T3").call("X", "n")
    else:
        # One tree, whose X.m reaches X.s through Z: the extension moves
        # X.s to X′ and duplicates a, b, X.m and X.n there.  The callers
        # of X.m and X.n are unordered (so are their calls on Y) and
        # commute on M, which keeps the cycle out of every ``↝``.
        t2 = system.transaction("T2")
        m1 = t2.call("M", "x").call("X", "m")
        m2 = t2.call("M", "y", parallel=True).call("X", "n")
        prims["o"] = m1.call("Z", "r").call("X", "s")
    prims["y1a"] = m1.call("Y", "read")
    prims["y1b"] = m1.call("Y", "write")
    prims["y2"] = m2.call("Y", "read")
    system.order_primitives(prims[name] for name in order if name in prims)
    return system


LEAN_ORDERS = {
    # violating: a1 <· a2 by the program, a2 < b < a1 by the stamps
    "a": (["c", "a2", "b", "a1"], ["c", "a1", "a2", "b"]),
    # violating: m1 < a and b < m2 (Axiom 1, or Definition 11 from X′),
    # a <· b (program) and m2 <· m1 inherited from Y (y2 < y1b), where m
    # and n commute
    "b": (
        ["y1a", "a", "b", "y2", "y1b", "o"],
        ["a", "b", "y1a", "y1b", "y2", "o"],
    ),
}
LEAN_ORDERS["c"] = LEAN_ORDERS["b"]


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_lean_objects_materialize_when_they_must(case):
    verdicts = set()
    violating = LEAN_ORDERS[case][0]
    for order in LEAN_ORDERS[case]:
        engine = IncrementalDependencyEngine(
            TransactionSystem(), _lean_registry(), track_cycles=True
        )
        tops = _lean_trees(case, order).tops
        for count, txn in enumerate(tops, start=1):
            engine.append_transaction(txn)
            if count == 1:
                assert "X" in engine._lean  # primitive-only so far
            prefix = TransactionSystem()
            for reference_txn in _lean_trees(case, order).tops[:count]:
                prefix.adopt(reference_txn)
            verdict, _ = reference_analyze_system(prefix, _lean_registry())
            assert engine.violated == (not verdict.oo_serializable), (
                order,
                count,
            )
            verdicts.add(verdict.oo_serializable)
        if order is violating:
            assert "X" not in engine._lean
        if case == "c":
            assert any(is_virtual(oid) for oid in engine.schedules)
    assert verdicts == {True, False}


# A lean page lifts while its append is still being integrated, so the
# caller objects it reaches by Definition 15 must already have schedules —
# also one first fed by that same append.  Pages A and B sort before the
# caller objects M and N.  T2 brings M: its page A lifts m1 ↝ n, recorded
# on M before M itself is integrated.  In the violating order n ↝ m2 (page
# B) and m2 <·_M m1 (Definition 11 from Y; m1 and m2 commute on M) close a
# cycle that lives only in M's <· ∪ <+: the global graph holds T2 → T1 → T3.


def _caller_registry():
    registry = CommutativityRegistry()  # A, B, N: everything conflicts
    registry.register("Y", ReadWriteCommutativity())
    registry.register("M", MatrixCommutativity({}, default=True))
    return registry


def _caller_trees(order):
    system = TransactionSystem()
    n = system.transaction("T1").call("N", "n")
    m1 = system.transaction("T2").call("M", "x")
    m2 = system.transaction("T3").call("M", "y")
    prims = {
        "b": n.call("A", "p"),
        "b2": n.call("B", "p"),
        "a": m1.call("A", "p"),
        "y1": m1.call("Y", "write"),
        "c": m2.call("B", "p"),
        "y2": m2.call("Y", "read"),
    }
    system.order_primitives(prims[name] for name in order)
    return system


CALLER_ORDERS = (
    ["a", "b", "b2", "c", "y2", "y1"],  # violating: y2 < y1
    ["a", "y1", "b", "b2", "c", "y2"],  # benign: m1 before m2 everywhere
)


def _added_edge_sets(schedules):
    edge_sets = {
        oid: set(_labeled_edges(sched.added_dep))
        for oid, sched in schedules.items()
    }
    return {oid: edges for oid, edges in edge_sets.items() if edges}


def test_lean_lifts_reach_caller_objects_new_in_the_append():
    verdicts = set()
    for order in CALLER_ORDERS:
        engine = IncrementalDependencyEngine(
            TransactionSystem(), _caller_registry(), track_cycles=True
        )
        for count, txn in enumerate(_caller_trees(order).tops, start=1):
            engine.append_transaction(txn)
            if count == 1:
                assert {"A", "B"} <= engine._lean
            prefix = TransactionSystem()
            for reference_txn in _caller_trees(order).tops[:count]:
                prefix.adopt(reference_txn)
            verdict, _ = reference_analyze_system(prefix, _caller_registry())
            assert engine.violated == (not verdict.oo_serializable), (
                order,
                count,
            )
            verdicts.add(verdict.oo_serializable)
            if engine.violated:
                continue  # the boolean engine stops deriving at a cycle
            materialized = TransactionSystem()
            for reference_txn in _caller_trees(order).tops[:count]:
                materialized.adopt(reference_txn)
            one_shot = IncrementalDependencyEngine(
                materialized, _caller_registry()
            ).run()
            assert _added_edge_sets(engine.schedules) == _added_edge_sets(
                one_shot
            ), (order, count)
    assert verdicts == {True, False}


# A tree appended after a Definition 5 split still joins it.  The trees of
# case (c) with the call of X.n moved into a third tree: T2's X.m reaches
# X.s through Z, so the extension moves X.s to X′ and duplicates a, b and
# X.m there.  The one-shot extension also duplicates T3's X.n onto X′.
# There n′ and b′ are primitive and conflict, so Axiom 1 orders them and
# Definition 11 carries the order to X.n and b on X — a pair no Axiom 1
# edge on X orders, since both have children by then.  An appended T3
# must get that duplicate too, or the cycle of case (b) goes unseen.  The
# certifier shape (no up-front extension) must agree as well.


def _split_then_join_trees(order):
    system = TransactionSystem()
    prims = {}
    caller = system.transaction("T1").call("M", "w")
    prims["a"] = caller.call("X", "p")
    prims["b"] = caller.call("X", "q")  # program: a before b
    m1 = system.transaction("T2").call("M", "x").call("X", "m")
    prims["o"] = m1.call("Z", "r").call("X", "s")
    m2 = system.transaction("T3").call("M", "y").call("X", "n")
    prims["y1a"] = m1.call("Y", "read")
    prims["y1b"] = m1.call("Y", "write")
    prims["y2"] = m2.call("Y", "read")
    system.order_primitives(prims[name] for name in order)
    return system


def test_trees_appended_after_a_split_join_it():
    verdicts = set()
    for order in LEAN_ORDERS["c"]:
        engine = IncrementalDependencyEngine(
            TransactionSystem(), _lean_registry(), track_cycles=True
        )
        certifier = OnlineCertifier(TransactionSystem(), _lean_registry())
        tops = _split_then_join_trees(order).tops
        for count, txn in enumerate(tops, start=1):
            engine.append_transaction(txn)
            certifier.observe_commit(
                _split_then_join_trees(order).tops[count - 1]
            )
            prefix = TransactionSystem()
            for reference_txn in _split_then_join_trees(order).tops[:count]:
                prefix.adopt(reference_txn)
            verdict, _ = reference_analyze_system(prefix, _lean_registry())
            expected = not verdict.oo_serializable
            assert engine.violated == expected, (order, count)
            assert certifier.violated == expected, (order, count)
            verdicts.add(verdict.oo_serializable)
        # the split happened before T3 arrived, and T3 joined it
        assert engine.system.splits == {"X′": "X"}
        assert any(
            action.virtual and action.obj == "X′" for action in tops[2].actions()
        )
    assert verdicts == {True, False}
