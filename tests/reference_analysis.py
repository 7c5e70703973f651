"""The batch dependency fixpoint, kept as the differential tests' reference.

This is the original rescanning evaluation of Axiom 1 and Definitions 7,
10, 11 and 15 plus the cross-object closure: every round walks every edge
of every relation until nothing changes.  It is quadratic in rounds ×
edges, which is why production code runs the worklist
:class:`repro.core.dependency.IncrementalDependencyEngine` instead.  Its
value is independence: the differential tests assert that the engine's
stratified drain reaches the same fixpoint *in the same order* — verdicts,
ordered edges, first-reason-wins provenance and cycle witnesses — on
fuzz-generated histories, not only on frozen seeds.

:func:`reference_analyze_system` mirrors
:func:`repro.core.serializability.analyze_system` and shares its
Definition 16 step (:func:`~repro.core.serializability.system_verdict`),
so the two differ only in the fixpoint.
"""

from __future__ import annotations

from repro.core.actions import ActionNode
from repro.core.commutativity import CommutativityRegistry
from repro.core.dependency import linearize_effects
from repro.core.extension import extend_system
from repro.core.identifiers import SYSTEM_OBJECT, ObjectId
from repro.core.schedule import ObjectSchedule, program_precedes
from repro.core.serializability import SystemVerdict, system_verdict
from repro.core.transactions import TransactionSystem


class ReferenceAnalysis:
    """The batch fixpoint over an already re-stamped, extended system."""

    def __init__(
        self,
        system: TransactionSystem,
        commutativity: CommutativityRegistry,
        *,
        propagate_cross_object: bool = True,
    ):
        self.system = system
        self.commutativity = commutativity
        self.propagate_cross_object = propagate_cross_object
        #: top-level ordering constraints discovered by the cross-object
        #: closure (pairs of root actions)
        self.top_cross_deps: set[tuple[ActionNode, ActionNode]] = set()

    def _conflict(self, a: ActionNode, b: ActionNode) -> bool:
        """Definition 9 conflict test, never raising for same-object pairs."""
        return self.commutativity.in_conflict(a, b)

    def _compute(self) -> dict[ObjectId, ObjectSchedule]:
        system = self.system
        objects = sorted(system.objects - {SYSTEM_OBJECT})
        schedules: dict[ObjectId, ObjectSchedule] = {}

        for oid in objects:
            sched = ObjectSchedule(system=system, oid=oid)
            sched.actions = system.actions_on(oid)
            sched.transactions = system.transactions_on(oid)
            for action in sched.actions:
                sched.action_dep.add_node(action)
            for caller in sched.transactions:
                sched.txn_dep.add_node(caller)
            self._bootstrap(sched)
            self._program_precedence(sched)
            schedules[oid] = sched

        self._fixpoint(schedules)
        self._added_dependencies(schedules)
        return schedules

    def _program_precedence(self, sched: ObjectSchedule) -> None:
        """Definition 7: the object precedence relation is part of ``<·``.

        The action dependency relation "must include the given precedences";
        in a conform schedule these edges agree with the execution order, in
        a non-conform one they surface as extra (possibly contradictory)
        dependencies.
        """
        actions = sched.actions
        for i, first in enumerate(actions):
            for second in actions[i + 1 :]:
                if program_precedes(first, second):
                    sched.action_dep.add_edge(first, second)
                    sched.record_reason(
                        "action", first, second, "Definition 7: program precedence"
                    )
                elif program_precedes(second, first):
                    sched.action_dep.add_edge(second, first)
                    sched.record_reason(
                        "action", second, first, "Definition 7: program precedence"
                    )

    def _bootstrap(self, sched: ObjectSchedule) -> None:
        """Axiom 1: order conflicting pairs with a primitive member by seq."""
        actions = sched.actions
        for i, first in enumerate(actions):
            for second in actions[i + 1 :]:
                if not (first.is_primitive or second.is_primitive):
                    continue
                if self._conflict(first, second):
                    # ``actions`` is sorted by seq: first executed first.
                    sched.action_dep.add_edge(first, second)
                    sched.record_reason(
                        "action",
                        first,
                        second,
                        "Axiom 1: executed {} < {}",
                        first.seq,
                        second.seq,
                    )

    def _fixpoint(self, schedules: dict[ObjectId, ObjectSchedule]) -> None:
        """Alternate Definitions 10, 11 and the cross-object closure until
        nothing new is derivable (the relations are finite and only grow)."""
        cross_seen: set[tuple[int, int]] = set()
        changed = True
        while changed:
            changed = False
            # Definition 10: lift conflicting action dependencies to callers.
            # (Lazy iteration is safe: the loop only adds txn edges.)
            for sched in schedules.values():
                for src, dst in sched.action_dep.iter_edges():
                    if not self._conflict(src, dst):
                        continue
                    caller_src, caller_dst = src.parent, dst.parent
                    if caller_src is None or caller_dst is None:
                        continue
                    if caller_src is caller_dst:
                        continue
                    if not sched.txn_dep.has_edge(caller_src, caller_dst):
                        sched.txn_dep.add_edge(caller_src, caller_dst)
                        sched.record_reason(
                            "txn",
                            caller_src,
                            caller_dst,
                            "Definition 10: conflicting actions {} <· {}",
                            src,
                            dst,
                        )
                        changed = True
            # Definition 11: transaction dependencies whose endpoints are
            # actions on one object flow into that object's action deps;
            # cross-object pairs enter the closure work set.  (Lazy again:
            # only action relations are mutated while txn edges are read.)
            for sched in schedules.values():
                for src, dst in sched.txn_dep.iter_edges():
                    if src.obj != dst.obj:
                        if self.propagate_cross_object:
                            if self._push_cross(src, dst, schedules, cross_seen):
                                changed = True
                        continue
                    target = schedules.get(src.obj)
                    if target is None:
                        continue
                    if not target.action_dep.has_edge(src, dst):
                        target.action_dep.add_edge(src, dst)
                        target.record_reason(
                            "action",
                            src,
                            dst,
                            "Definition 11: inherited from {}",
                            sched.oid,
                        )
                        changed = True

    def _push_cross(
        self,
        src: ActionNode,
        dst: ActionNode,
        schedules: dict[ObjectId, ObjectSchedule],
        seen: set[tuple[int, int]],
    ) -> bool:
        """Lift one cross-object dependency toward a common object.

        A pair of actions on different objects cannot be shown to commute
        (commutativity is per object), so the ordering constraint between
        them is inherited by their callers: the deeper endpoint is replaced
        by its caller until both endpoints are actions on one object (then
        the constraint joins that object's ``<·`` and the usual machinery —
        including commutativity — takes over) or both are top-level roots
        (then it is a top-level ordering constraint).
        """
        changed = False
        pair: tuple[ActionNode, ActionNode] | None = (src, dst)
        while pair is not None:
            left, right = pair
            key = (id(left), id(right))
            if key in seen:
                return changed
            seen.add(key)
            if left.parent is None and right.parent is None:
                if (left, right) not in self.top_cross_deps:
                    self.top_cross_deps.add((left, right))
                    changed = True
                return changed
            if left.obj == right.obj:
                target = schedules.get(left.obj)
                if target is not None and left in target.action_dep \
                        and right in target.action_dep:
                    if not target.action_dep.has_edge(left, right):
                        target.action_dep.add_edge(left, right)
                        target.record_reason(
                            "action",
                            left,
                            right,
                            "cross-object closure (from {} -> {})",
                            src,
                            dst,
                        )
                        changed = True
                    return changed
            # Lift the deeper side; on equal depth lift both.
            if left.depth > right.depth and left.parent is not None:
                pair = (left.parent, right)
            elif right.depth > left.depth and right.parent is not None:
                pair = (left, right.parent)
            else:
                next_left = left.parent if left.parent is not None else left
                next_right = right.parent if right.parent is not None else right
                if next_left is left and next_right is right:
                    return changed
                pair = (next_left, next_right)
            if pair[0] is pair[1]:
                return changed  # same caller: intra-unit, no constraint
        return changed

    def _added_dependencies(self, schedules: dict[ObjectId, ObjectSchedule]) -> None:
        """Definition 15: record cross-object transaction dependencies at
        both endpoint objects, redundantly."""
        for sched in schedules.values():
            for src, dst in sched.txn_dep.iter_edges():
                if src.obj == dst.obj:
                    continue
                for endpoint_obj in (src.obj, dst.obj):
                    target = schedules.get(endpoint_obj)
                    if target is not None:
                        target.added_dep.add_edge(src, dst)
                        target.record_reason(
                            "added",
                            src,
                            dst,
                            "Definition 15: recorded from {}",
                            sched.oid,
                        )


def reference_analyze_system(
    system: TransactionSystem,
    commutativity: CommutativityRegistry,
    *,
    extend: bool = True,
    propagate_cross_object: bool = True,
) -> tuple[SystemVerdict, dict[ObjectId, ObjectSchedule]]:
    """:func:`~repro.core.serializability.analyze_system` on the batch
    fixpoint: the same tree mutations in the same order, then the shared
    Definition 16 step."""
    linearize_effects(system)
    if extend:
        extend_system(system)
    analysis = ReferenceAnalysis(
        system, commutativity, propagate_cross_object=propagate_cross_object
    )
    schedules = analysis._compute()
    return system_verdict(system, schedules, analysis.top_cross_deps), schedules
