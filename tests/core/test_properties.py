"""Property-based tests for the core model (hypothesis).

The generators build random transaction systems over a small universe of
objects with mixed read/write and key-based semantics, then check the
paper's structural invariants:

- serial executions are always oo-serializable and conventionally
  serializable;
- oo-serializability admits a superset of the conventionally serializable
  schedules (whenever the conventional criterion accepts, so does ours,
  given semantics at least as permissive as read/write);
- the Definition 5 extension terminates, is idempotent and leaves no
  offending action;
- the dependency fixpoint is deterministic.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyze_system
from repro.core.commutativity import (
    CommutativityRegistry,
    MatrixCommutativity,
    ReadWriteCommutativity,
)
from repro.core.extension import extend_system, find_offending_action
from repro.core.serializability import conventional_baseline
from repro.core.transactions import TransactionSystem

PAGES = [f"Page{i}" for i in range(4)]
CONTAINERS = [f"Box{i}" for i in range(3)]
KEYS = ["a", "b", "c"]


def registry() -> CommutativityRegistry:
    reg = CommutativityRegistry()
    reg.register_prefix("Page", ReadWriteCommutativity())
    reg.register_prefix(
        "Box",
        MatrixCommutativity(
            {
                ("get", "get"): True,
                ("get", "put"): lambda a, b: a.args[0] != b.args[0],
                ("put", "put"): lambda a, b: a.args[0] != b.args[0],
            }
        ),
    )
    return reg


@st.composite
def transaction_programs(draw):
    """A list of transaction programs; each program is a list of operations.

    An operation is either a direct page access or a container operation
    that spans one or two page accesses underneath.
    """
    n_txns = draw(st.integers(min_value=1, max_value=4))
    programs = []
    for _ in range(n_txns):
        n_ops = draw(st.integers(min_value=1, max_value=4))
        ops = []
        for _ in range(n_ops):
            kind = draw(st.sampled_from(["page", "container"]))
            if kind == "page":
                ops.append(
                    (
                        "page",
                        draw(st.sampled_from(PAGES)),
                        draw(st.sampled_from(["read", "write"])),
                    )
                )
            else:
                ops.append(
                    (
                        "container",
                        draw(st.sampled_from(CONTAINERS)),
                        draw(st.sampled_from(["get", "put"])),
                        draw(st.sampled_from(KEYS)),
                        draw(st.sampled_from(PAGES)),
                    )
                )
        programs.append(ops)
    return programs


def build_system(programs, interleave_seed=None):
    """Instantiate the programs; optionally shuffle the primitive order."""
    system = TransactionSystem()
    primitives = []
    for program in programs:
        txn = system.transaction()
        for op in program:
            if op[0] == "page":
                _, page, method = op
                primitives.append(txn.call(page, method))
            else:
                _, box, method, key, page = op
                container_action = txn.call(box, method, (key,))
                primitives.append(
                    container_action.call(
                        page, "read" if method == "get" else "write"
                    )
                )
    if interleave_seed is not None:
        rng = random.Random(interleave_seed)
        by_txn: dict[str, list] = {}
        for prim in primitives:
            by_txn.setdefault(prim.top, []).append(prim)
        # merge per-transaction streams in random order (preserving each
        # transaction's program order)
        merged = []
        streams = [list(v) for v in by_txn.values()]
        while streams:
            stream = rng.choice(streams)
            merged.append(stream.pop(0))
            if not stream:
                streams.remove(stream)
        system.order_primitives(merged)
    return system


@settings(max_examples=60, deadline=None)
@given(transaction_programs())
def test_serial_execution_always_serializable(programs):
    system = build_system(programs)  # construction order == serial order
    verdict, schedules = analyze_system(system, registry())
    assert conventional_baseline(system).serializable
    assert verdict.oo_serializable
    for sched in schedules.values():
        assert sched.is_conform()


@settings(max_examples=60, deadline=None)
@given(transaction_programs(), st.integers(min_value=0, max_value=2**16))
def test_conventionally_serializable_implies_oo_serializable(programs, seed):
    system = build_system(programs, interleave_seed=seed)
    if conventional_baseline(system).serializable:
        verdict, _ = analyze_system(system, registry())
        assert verdict.oo_serializable, (
            "oo-serializability must admit every conventionally "
            "serializable schedule"
        )


@settings(max_examples=60, deadline=None)
@given(transaction_programs(), st.integers(min_value=0, max_value=2**16))
def test_oo_constraints_subset_of_conventional(programs, seed):
    system = build_system(programs, interleave_seed=seed)
    verdict, _ = analyze_system(system, registry())
    conventional = conventional_baseline(system).constraints
    # Each oo top-level constraint must have a conventional counterpart:
    # semantic reasoning can only drop constraints, never invent them.
    assert verdict.top_order_constraints <= conventional


@settings(max_examples=40, deadline=None)
@given(transaction_programs(), st.integers(min_value=0, max_value=2**16))
def test_analysis_is_deterministic(programs, seed):
    system1 = build_system(programs, interleave_seed=seed)
    system2 = build_system(programs, interleave_seed=seed)
    verdict1, s1 = analyze_system(system1, registry())
    verdict2, s2 = analyze_system(system2, registry())
    assert verdict1.oo_serializable == verdict2.oo_serializable
    assert verdict1.top_order_constraints == verdict2.top_order_constraints
    assert {o: s.txn_dep_pairs() for o, s in s1.items()} == {
        o: s.txn_dep_pairs() for o, s in s2.items()
    }


@st.composite
def cyclic_call_trees(draw):
    """Random call trees where children may reuse ancestor objects."""
    system = TransactionSystem()
    objects = [f"O{i}" for i in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 3))):
        txn = system.transaction()
        frontier = [txn.root]
        for _ in range(draw(st.integers(1, 6))):
            parent = draw(st.sampled_from(frontier))
            child = parent.call(draw(st.sampled_from(objects)), "m")
            frontier.append(child)
    return system


@settings(max_examples=60, deadline=None)
@given(cyclic_call_trees())
def test_extension_terminates_and_clears_offenders(system):
    result = extend_system(system)
    assert find_offending_action(system) is None
    # idempotence
    second = extend_system(system)
    assert not second.was_extended
    # every duplicate hangs off its original and shares its seq stamp
    for dup in result.duplicates:
        assert dup.parent is dup.original
        assert dup.seq == dup.original.seq


@settings(max_examples=40, deadline=None)
@given(cyclic_call_trees())
def test_extension_preserves_action_multiset_per_original_object(system):
    from repro.core.identifiers import SYSTEM_OBJECT, original_object_id

    before = {}
    for action in system.all_actions():
        if action.obj != SYSTEM_OBJECT:
            before[original_object_id(action.obj)] = (
                before.get(original_object_id(action.obj), 0) + 1
            )
    extend_system(system)
    after = {}
    for action in system.all_actions():
        if action.virtual or action.obj == SYSTEM_OBJECT:
            continue  # duplicates are new; originals must all survive
        after[original_object_id(action.obj)] = (
            after.get(original_object_id(action.obj), 0) + 1
        )
    assert before == after
