"""Lifecycle differential: every certifier operation held to the reference.

A hypothesis state machine drives one
:class:`~repro.core.certify.OnlineCertifier` through appends, retractions,
seals, forced escalations and the optimistic validator's pattern (append,
retract on False), over call trees drawn by
:func:`tests.core.test_properties.cyclic_call_trees` with interleaved
stamps.  After every step its verdict must equal the batch reference
(:func:`tests.reference_analysis.reference_analyze_system`) over a fresh
copy of the trees it holds, rebuilt from the same draw so the reference's
own Definition 5 extension cannot touch the certifier's trees; once the
epoch has escalated, so must each real object's Definition 15 edges.

Tier-1 runs a bounded number of examples.  The longer run::

    python -m pytest tests/core/test_certify_lifecycle.py \\
        --hypothesis-profile=lifecycle
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.actions import ActionNode
from repro.core.certify import ESCALATE_WINDOW, OnlineCertifier
from repro.core.commutativity import CommutativityRegistry, MatrixCommutativity
from repro.core.identifiers import SYSTEM_OBJECT, is_virtual
from repro.core.transactions import OOTransaction, TransactionSystem
from tests.core.test_properties import cyclic_call_trees
from tests.reference_analysis import reference_analyze_system

#: how far below the newest stamp a new tree may reach (stragglers)
OVERLAP = 8
#: trees held at once before appends wait for a seal or a retraction (a
#: service epoch is one batch of eight; the reference is quadratic)
MAX_LIVE = 8


def _registry() -> CommutativityRegistry:
    registry = CommutativityRegistry()  # O0, O2: every pair conflicts
    registry.register("O1", MatrixCommutativity({("m", "m"): True}))
    return registry


@dataclass
class _Draw:
    """One tree as drawn: enough to build any number of identical copies."""

    label: str
    number: int
    #: preorder (parent position, object) of every non-root action
    shape: tuple
    #: preorder stamps, the root's first
    stamps: tuple

    def build(self) -> OOTransaction:
        root = ActionNode(
            aid=(self.number,),
            obj=SYSTEM_OBJECT,
            method=self.label,
            top=self.label,
            seq=self.stamps[0],
        )
        nodes = [root]
        for (parent, obj), seq in zip(self.shape, self.stamps[1:]):
            nodes.append(nodes[parent].call(obj, "m", seq=seq))
        return OOTransaction(self.label, root)


def _shape(txn: OOTransaction) -> tuple:
    order = list(txn.actions())
    position = {id(action): i for i, action in enumerate(order)}
    return tuple((position[id(a.parent)], a.obj) for a in order[1:])


def _added_edges(schedules) -> dict:
    """Each real object's Definition 15 edges between real actions, keyed
    by (top, aid): virtual names depend on the splits seen, keys do not."""
    edges = {}
    for oid, schedule in schedules.items():
        if is_virtual(oid):
            continue
        found = {
            ((src.top, src.aid), (dst.top, dst.aid))
            for src, dst in schedule.added_dep.iter_edges()
            if not (src.virtual or dst.virtual)
        }
        if found:
            edges[oid] = found
    return edges


class CertifierLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.judge = OnlineCertifier(TransactionSystem(), _registry())
        #: (draw, the judge's copy) of every tree the judge holds, fed order
        self.live: list[tuple[_Draw, OOTransaction]] = []
        #: trees fed and never retracted, sealed epochs included
        self.kept = 0
        self.kept_actions = 0
        self.sealed_epochs = 0
        self.trees = 0
        self.clock = 0  # newest stamp drawn
        self.floor = 0  # every stamp drawn from now on lies above it
        self.used: set[int] = set()

    def _draw(self, data, txn: OOTransaction) -> _Draw:
        shape = _shape(txn)
        size = len(shape) + 1
        low = max(self.floor, self.clock - OVERLAP) + 1
        pool = [
            s for s in range(low, self.clock + 2 * size + 1) if s not in self.used
        ]
        stamps = data.draw(
            st.lists(
                st.sampled_from(pool), min_size=size, max_size=size, unique=True
            )
        )
        if data.draw(st.booleans()):
            stamps.sort()  # in call order: the fast path's common case
        self.used.update(stamps)
        self.clock = max(self.clock, *stamps)
        self.trees += 1
        return _Draw(f"T{self.trees}", self.trees, shape, tuple(stamps))

    def _feed(self, draw: _Draw) -> bool:
        txn = draw.build()
        fed = not self.judge.violated
        ok = self.judge.observe_commit(txn)
        if fed:
            self._hold(draw, txn)
        return ok

    def _hold(self, draw: _Draw, txn: OOTransaction) -> None:
        self.live.append((draw, txn))
        self.kept += 1
        self.kept_actions += len(draw.shape)

    def _drop(self, index: int) -> None:
        draw, txn = self.live.pop(index)
        assert self.judge.retract(txn)
        assert not self.judge.retract(txn)  # held once, taken back once
        self.kept -= 1
        self.kept_actions -= len(draw.shape)

    @precondition(lambda self: len(self.live) < MAX_LIVE)
    @rule(data=st.data(), source=cyclic_call_trees())
    def append(self, data, source):
        for txn in source.tops:
            self._feed(self._draw(data, txn))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def retract(self, data):
        self._drop(data.draw(st.integers(0, len(self.live) - 1)))

    @precondition(
        lambda self: len(self.live) < MAX_LIVE and not self.judge.violated
    )
    @rule(data=st.data(), source=cyclic_call_trees())
    def validate(self, data, source):
        for txn in source.tops:
            if not self._feed(self._draw(data, txn)):
                self._drop(len(self.live) - 1)
                assert not self.judge.violated

    @rule()
    def seal(self):
        self.judge.seal()
        self.floor = self.clock
        if self.judge.violated:
            return  # a violation is final: the seal is a no-op
        if self.live:
            self.sealed_epochs += 1
        sealed, self.live = self.live, []
        for _, txn in sealed:
            assert not self.judge.retract(txn)

    @rule()
    def escalate(self):
        self.judge.escalate(ESCALATE_WINDOW)

    @invariant()
    def agrees_with_the_reference(self):
        judge = self.judge
        assert judge.live_transactions == len(self.live)
        assert [txn for _, txn in self.live] == judge.system.tops
        assert judge.committed == self.kept
        assert judge.actions == self.kept_actions
        assert judge.fast_commits + judge.escalated_commits == self.kept
        assert judge.epochs == self.sealed_epochs + bool(self.live)
        reference = TransactionSystem()
        for draw, _ in self.live:
            reference.adopt(draw.build())
        verdict, schedules = reference_analyze_system(reference, _registry())
        assert judge.violated == (not verdict.oo_serializable)
        if judge._engine is not None and not judge.violated:
            assert _added_edges(judge._engine.schedules) == _added_edges(
                schedules
            )


#: the ``lifecycle`` profile (tests/conftest.py) is the longer run
CertifierLifecycle.TestCase.settings = (
    settings.default
    if settings.get_current_profile_name() == "lifecycle"
    else settings(max_examples=300, stateful_step_count=30, deadline=None)
)
TestCertifierLifecycle = CertifierLifecycle.TestCase
