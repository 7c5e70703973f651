"""Dependency inheritance (Axiom 1, Definitions 10, 11 and 15).

This module turns an executed transaction system plus a commutativity
registry into the per-object dependency relations.  The computation follows
the paper's information-flow story ("divide et impera", Section 1):

1. **Bootstrap (Axiom 1).**  Conflicting primitive actions on an object are
   totally ordered — we take the execution order (``seq`` stamps).  The same
   bootstrap applies when exactly one action of a conflicting pair is
   primitive: the primitive side has no deeper structure to inherit from, so
   its order "must be given" and the execution order supplies it.

2. **Lifting (Definition 10).**  If two actions on ``O`` are in conflict and
   an action dependency orders them, the dependency is inherited upward to
   the calling actions, which play the role of transactions on ``O``:
   ``t ↝ t'``.  Dependencies of *commuting* actions are **not** lifted —
   this is where oo-serializability gains concurrency over the conventional
   definition.

3. **Information flow (Definition 11).**  A transaction dependency recorded
   at ``P`` whose endpoints are both actions on another object ``O`` becomes
   an action dependency of ``O``'s schedule.  Steps 2-3 repeat to a fixpoint;
   for layered systems this is the usual level-by-level inheritance, but the
   fixpoint also covers the paper's non-layered call structures.

4. **Added dependencies (Definition 15).**  A transaction dependency whose
   endpoints are actions on *different* objects cannot be recorded as an
   action dependency anywhere; it is recorded redundantly at both objects in
   their *added action dependency* relations.

5. **Cross-object closure (reconstruction).**  Recording alone does not make
   contradictions *detectable* when the two call paths have different depths
   (DESIGN.md documents a counterexample schedule).  Commutativity is only
   defined per object, so a cross-object pair can never be shown to commute;
   we therefore keep lifting such a dependency to the calling actions until
   both endpoints are actions on one common object — where the object's
   commutativity may stop it, preserving the paper's concurrency gain — or
   both are top-level roots, where it becomes a top-level ordering
   constraint.  ``propagate_cross_object=False`` restores the literal
   Definition 15/16 reading (used by ablation benches).

One engine computes the fixpoint, :class:`IncrementalDependencyEngine`.
It is worklist-driven: each edge is processed exactly once, when it is
first derived, and appended transactions (``append_transaction``) only pay
for their own deltas.  With ``track_cycles=True`` every relation is watched
by an online topological order (:class:`repro.core.graph.OnlineTopology`),
so the first contradiction is reported at the insertion that closes it.

The boolean engine also skips the ``<·`` of a *primitive-only* object —
one whose every action calls nothing, such as a page, or a virtual object
holding only duplicates.  Definition 10 is all such an object contributes:
for each ordered pair of distinct callers the engine decides the actions'
pairs only until one conflict orders the callers that way, and observes
that one edge ``m ↝ m′``.  The object is *materialized* — every pair
decided by the ordinary pair kernel, as it would have been at
integration — before a method action joins it, before the program orders
one of its same-tree pairs against their stamps, and before a Definition
11, closure or Definition 15 edge reaches it.  DESIGN §6, decision 16,
argues that verdicts are unchanged; one-shot analyses never take this
path.

Edge order is part of the output: cycle witnesses, ``describe`` tables and
the pinned campaign reports all read relations in insertion order.  For
one-shot analyses the worklist is therefore drained in *stratified* rounds
(``_drain``) and Definition 15 is recorded in one pass over the finished
relations (``_finalize_added``), which fixes the order to that of the
naive rescanning fixpoint.  The test suite keeps that rescanning fixpoint
as a reference and checks the engine against it edge for edge —
verdicts, ordered edges, first-reason-wins provenance and cycle witnesses.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.actions import ActionNode, Invocation
from repro.core.commutativity import CommutativityRegistry
from repro.core.extension import extend_system
from repro.core.graph import OnlineTopology
from repro.core.identifiers import SYSTEM_OBJECT, ObjectId
from repro.core.schedule import ObjectSchedule, call_path, path_order
from repro.core.transactions import OOTransaction, TransactionSystem


def linearize_effects(
    system: TransactionSystem, tops: Iterable[OOTransaction] | None = None
) -> None:
    """Re-stamp each method action at its first own-object effect.

    The execution trace stamps an action's ``seq`` when its scheduler
    request is granted.  For protocols that lock the accessed object itself
    this *is* the object-level serialization point.  But under
    page-granularity protocols (flat 2PL, closed nesting) a method action
    acquires no lock on its object: its stamp records dispatch time, while
    the actual serialization of two conflicting method executions happens at
    their first page conflict — which, after an interleaving switch, can
    contradict dispatch order.  Axiom 1 would then bootstrap edges (via the
    primitive virtual duplicates of Definition 5, which inherit the stamp)
    that invert the real execution order, manufacturing cycles in perfectly
    serializable 2PL histories.

    The honest object-schedule position of a method action is therefore the
    ``seq`` of its first *direct* primitive child — its first access to its
    own object's page.  For object-locking protocols this never reorders
    conflicting pairs (the grant stamp precedes all children and conflicting
    actions cannot overlap), so the rewrite is safe to apply universally.
    Actions without direct primitive children fall back to their subtree's
    first effect, and childless actions keep their stamp.  The rewrite is
    idempotent and must run before the Definition 5 extension (duplicates
    copy their original's stamp).

    ``tops`` restricts the rewrite to the given transactions' trees (the
    incremental engine re-stamps only what it appends; the recursion never
    leaves a tree, so a restricted pass equals the global one restricted).
    """
    effective: dict[int, int] = {}

    def eff(action: ActionNode) -> int:
        key = id(action)
        if key in effective:
            return effective[key]
        if action.is_primitive:
            value = action.seq
        else:
            direct = [c.seq for c in action.children if c.is_primitive]
            if direct:
                value = min(direct)
            elif action.children:
                value = min(eff(c) for c in action.children)
            else:
                value = action.seq
        effective[key] = value
        return value

    if tops is None:
        source: Iterable[ActionNode] = system.all_actions()
    else:
        source = (action for txn in tops for action in txn.actions())
    updates = [
        (action, eff(action))
        for action in source
        if not action.is_primitive and not action.virtual
    ]
    for action, value in updates:
        action.seq = value


class IncrementalDependencyEngine:
    """Worklist-driven evaluation of the Definition 10/11/15 fixpoint.

    Every newly derived edge is *observed* exactly once: it is recorded in
    its relation, tagged with its position in the relation's iteration
    order, and queued.  :meth:`_drain` then processes queued edges in
    stratified rounds — a Definition 10 phase over new action dependencies
    followed by a Definition 11/closure phase over new transaction
    dependencies, schedules in sorted object order, edges in relation
    order.  That is the derivation order of a naive fixpoint that rescans
    every edge per round (only the new ones derive anything), so one-shot
    analyses get its edge order while doing O(edges) instead of
    O(rounds × edges) rule evaluations.

    The engine is also *appendable*: :meth:`append_transaction` integrates
    one more executed transaction into an existing analysis — re-stamping
    and extending only the new tree, bootstrapping only pairs with a new
    member — which is how :class:`~repro.core.certify.OnlineCertifier`
    (the audit and the optimistic protocol's validator) extends an epoch's
    analysis instead of re-analyzing from empty.

    With ``track_cycles=True`` every relation feeds an
    :class:`~repro.core.graph.OnlineTopology` watcher (per-object
    transaction and combined ``<· ∪ <+`` relations — the latter also
    watches ``<·`` — plus the global top-level graph), Definition 15
    recording happens eagerly, and
    :attr:`violated` flips at the exact insertion that closes the first
    cycle — the boolean consumers (certifier, fuzz oracle fast path) stop
    there.  Such an engine keeps a primitive-only object *lean*: it lifts
    conflicts straight to distinct caller pairs
    (:meth:`_lift_caller_pairs`) and records no ``<·`` for the object
    until something needs it (:meth:`_materialize`; module docstring).
    Without ``track_cycles``, added dependencies are recorded in one pass
    over the finished relations (:meth:`_finalize_added`), which keeps
    their insertion order, and with it combined-graph cycle witnesses,
    stable.
    """

    def __init__(
        self,
        system: TransactionSystem,
        commutativity: CommutativityRegistry,
        *,
        propagate_cross_object: bool = True,
        track_cycles: bool = False,
        linearize: bool = True,
        extend: bool = True,
    ):
        self.system = system
        self.commutativity = commutativity
        self.propagate_cross_object = propagate_cross_object
        self.track_cycles = track_cycles
        self.linearize = linearize
        self.extend = extend
        self.schedules: dict[ObjectId, ObjectSchedule] = {}
        self.top_cross_deps: set[tuple[ActionNode, ActionNode]] = set()
        #: set as soon as any watched relation becomes cyclic (track_cycles)
        self.violated = False
        self._seen_actions: set[int] = set()
        self._seen_callers: dict[ObjectId, set[int]] = {}
        self._cross_seen: set[tuple[int, int]] = set()
        #: primitive-only objects integrated per caller pair, no ``<·`` yet
        self._lean: set[ObjectId] = set()
        #: per-object queues of (relation-order key, src, dst[, conflict])
        self._pending_action: dict[ObjectId, list] = {}
        self._pending_txn: dict[ObjectId, list] = {}
        self._watch_txn: dict[ObjectId, OnlineTopology] = {}
        self._watch_combined: dict[ObjectId, OnlineTopology] = {}
        self._watch_global: OnlineTopology = OnlineTopology()

    # -- public API ----------------------------------------------------------

    def run(self) -> dict[ObjectId, ObjectSchedule]:
        """One-shot: integrate every transaction, object by object, and drain."""
        if self.linearize:
            linearize_effects(self.system)
        if self.extend:
            extend_system(self.system)
        # One sweep over the trees instead of ``actions_on`` per object —
        # the latter costs O(objects × actions) in repeated full scans.
        groups: dict[ObjectId, list[ActionNode]] = {}
        for action in self.system.all_actions():
            if action.obj != SYSTEM_OBJECT:
                groups.setdefault(action.obj, []).append(action)
        objects = sorted(self.system.objects - {SYSTEM_OBJECT})
        for oid in objects:
            self._schedule_for(oid)
        for oid in objects:
            group = groups.get(oid)
            if group:
                group.sort(key=lambda a: (a.seq, a.aid))
                self._integrate_object(self.schedules[oid], group)
        self._drain()
        if not self.track_cycles:
            self._finalize_added()
        return self.schedules

    def append_transaction(
        self, txn: OOTransaction, *, extras: Iterable[ActionNode] | None = None
    ) -> None:
        """Extend the analysis with one more executed transaction.

        The transaction is added to the engine's system if missing; only
        its tree is re-stamped and extended (committed trees are already
        extension-free), and only dependency deltas involving its actions
        (plus any virtual duplicates the extension hangs off committed
        trees) are derived.

        When ``extras`` is given (any sequence, including an empty one) the
        tree is taken as already re-stamped and extended — the caller did
        the linearize/extend pass itself, e.g. globally up front — and the
        given duplicates are integrated alongside the tree's own actions.
        """
        self.system.adopt(txn)
        if extras is None:
            if self.linearize:
                linearize_effects(self.system, tops=[txn])
            extras = []
            if self.extend:
                extension = extend_system(self.system, tops=[txn])
                extras = extension.duplicates
        self._integrate_tree(txn, extras=extras)
        self._drain()

    # -- integration ---------------------------------------------------------

    def _schedule_for(self, oid: ObjectId) -> ObjectSchedule:
        sched = self.schedules.get(oid)
        if sched is None:
            sched = ObjectSchedule(system=self.system, oid=oid)
            self.schedules[oid] = sched
        return sched

    def _integrate_tree(
        self, txn: OOTransaction, extras: Iterable[ActionNode] = ()
    ) -> None:
        """Queue every not-yet-seen action of ``txn`` (plus ``extras`` —
        virtual duplicates the extension attached to this or other trees;
        one hanging off ``txn`` is also among its actions and counts once)."""
        fresh: dict[ObjectId, list[ActionNode]] = {}
        seen = self._seen_actions
        for action in list(txn.actions()) + list(extras):
            if action.obj == SYSTEM_OBJECT or id(action) in seen:
                continue
            seen.add(id(action))
            fresh.setdefault(action.obj, []).append(action)
        # Every schedule exists before any object is integrated, as in
        # ``run``: a lean object lifts during its integration, and
        # Definition 15 must find the caller objects — also those this
        # tree feeds for the first time — to record on.
        objects = sorted(fresh)
        for oid in objects:
            self._schedule_for(oid)
        for oid in objects:
            new_actions = sorted(fresh[oid], key=lambda a: (a.seq, a.aid))
            self._integrate_object(self.schedules[oid], new_actions)

    def _integrate_object(
        self, sched: ObjectSchedule, new_actions: list[ActionNode]
    ) -> None:
        """Merge new actions into a schedule and derive their base facts.

        When the schedule is empty this is the whole per-object setup
        (nodes, Axiom 1, Definition 7) in seq order; on later appends only
        pairs with a new member are examined.  The boolean engine keeps a
        primitive-only object lean (:meth:`_lift_caller_pairs`) until a
        non-primitive action joins it or the program orders a same-tree
        pair against its stamps; then it is materialized first.
        """
        if not new_actions:
            return
        new_ids = {id(a) for a in new_actions}
        self._seen_actions.update(new_ids)
        old = sched.actions
        if old:
            merged = sorted(old + new_actions, key=lambda a: (a.seq, a.aid))
        else:
            merged = list(new_actions)
        sched.actions = merged
        for action in merged:
            if id(action) in new_ids:
                sched.action_dep.add_node(action)

        callers_seen = self._seen_callers.setdefault(sched.oid, set())
        new_callers: list[ActionNode] = []
        for action in merged:
            if id(action) not in new_ids:
                continue
            caller = action.parent
            if caller is not None and id(caller) not in callers_seen:
                callers_seen.add(id(caller))
                new_callers.append(caller)
        if new_callers:
            new_callers.sort(key=lambda a: (a.seq, a.aid))
            if sched.transactions:
                sched.transactions = sorted(
                    sched.transactions + new_callers,
                    key=lambda a: (a.seq, a.aid),
                )
            else:
                sched.transactions = list(new_callers)
            for caller in new_callers:
                sched.txn_dep.add_node(caller)

        fresh = [id(a) in new_ids for a in merged]
        paths = [call_path(a) for a in merged]
        primitive = [not a.children for a in merged]
        lean = sched.oid in self._lean
        if (
            self.track_cycles
            and (lean or not old)
            and all(primitive)
            and self._lift_caller_pairs(sched, merged, fresh, paths)
        ):
            self._lean.add(sched.oid)
            return
        if lean:
            self._materialize(sched, old)
        self._decide_pairs(sched, merged, fresh, paths, primitive)

    def _decide_pairs(
        self,
        sched: ObjectSchedule,
        actions: list[ActionNode],
        fresh: list[bool],
        paths: list[list[ActionNode]],
        primitive: list[bool],
    ) -> None:
        """The pair kernel: Axiom 1 and Definition 7 edges of ``<·``.

        One pass decides every pair with a fresh member: each fresh action,
        in schedule order, against every other action (a pair of two fresh
        actions once, from its earlier member).  Per-action facts are
        looked up once per integration.  A same-tree pair is decided by
        program order first: an ordered pair is Definition 7's edge and,
        being one process, commutes by Definition 9.  Only unordered
        pairs with a primitive member reach the specification (Axiom 1).
        All Axiom 1 edges are recorded before all Definition 7 edges,
        each kind in pair order: relation order is part of the output.
        """
        invocations: list[Invocation | None] = [None] * len(actions)
        commutes = self.commutativity.for_object(sched.oid).commutes
        bootstrap: list[tuple[ActionNode, ActionNode, tuple]] = []
        program: list[tuple[ActionNode, ActionNode, tuple]] = []
        for i in range(len(actions)):
            if not fresh[i]:
                continue
            root = paths[i][0]
            outer_primitive = primitive[i]
            for j in range(len(actions)):
                if j == i or (j < i and fresh[j]):
                    continue
                first, second = (i, j) if i < j else (j, i)
                if paths[j][0] is root:
                    order = path_order(paths[first], paths[second])
                    if order:
                        if order < 0:
                            first, second = second, first
                        program.append((actions[first], actions[second], ()))
                        continue
                if not (outer_primitive or primitive[j]):
                    continue
                left = invocations[first]
                if left is None:
                    left = invocations[first] = actions[first].invocation()
                right = invocations[second]
                if right is None:
                    right = invocations[second] = actions[second].invocation()
                if not commutes(left, right):
                    src, dst = actions[first], actions[second]
                    bootstrap.append((src, dst, (src.seq, dst.seq)))

        self._observe_actions(
            sched, bootstrap, "Axiom 1: executed {} < {}", conflict=True
        )
        self._observe_actions(
            sched, program, "Definition 7: program precedence", conflict=False
        )

    def _lift_caller_pairs(
        self,
        sched: ObjectSchedule,
        actions: list[ActionNode],
        fresh: list[bool],
        paths: list[list[ActionNode]],
    ) -> bool:
        """Definition 10 straight from the pairs of a primitive-only object.

        The boolean engine's path for an object whose every action calls
        nothing (DESIGN §6, decision 16).  Pairs are visited as by
        :meth:`_decide_pairs`, but no ``<·`` edge is recorded: a conflict
        between distinct callers whose edge ``↝`` does not hold yet is
        lifted at once, and a caller pair already in ``↝`` is not decided
        again.  Returns False, for the caller to materialize the object, at
        the first same-tree pair the program orders against its stamps.
        """
        invocations: list[Invocation | None] = [None] * len(actions)
        commutes = self.commutativity.for_object(sched.oid).commutes
        known = sched.txn_dep.has_edge
        for i in range(len(actions)):
            if not fresh[i]:
                continue
            root = paths[i][0]
            for j in range(len(actions)):
                if j == i or (j < i and fresh[j]):
                    continue
                first, second = (i, j) if i < j else (j, i)
                if paths[j][0] is root:
                    order = path_order(paths[first], paths[second])
                    if order < 0:
                        return False
                    if order:
                        continue
                src, dst = actions[first], actions[second]
                if src.parent is dst.parent or known(src.parent, dst.parent):
                    continue
                left = invocations[first]
                if left is None:
                    left = invocations[first] = src.invocation()
                right = invocations[second]
                if right is None:
                    right = invocations[second] = dst.invocation()
                if not commutes(left, right):
                    self._lift(sched, src, dst, True)
        return True

    def _materialize(
        self, sched: ObjectSchedule, actions: list[ActionNode] | None = None
    ) -> None:
        """Give a primitive-only object its ``<·`` (all of it, or ``actions``).

        Every pair is decided as the pair kernel decided it when its later
        member was integrated — both members primitive then, whatever
        Definition 5 duplicates hang off them now.  The lifts repeat edges
        ``↝`` already holds; from here on the object takes the full path.
        """
        self._lean.discard(sched.oid)
        if actions is None:
            actions = sched.actions
        every = [True] * len(actions)
        paths = [call_path(a) for a in actions]
        self._decide_pairs(sched, actions, every, paths, every)

    # -- observation ---------------------------------------------------------

    def _observe_actions(
        self,
        sched: ObjectSchedule,
        edges: Iterable[tuple[ActionNode, ActionNode, tuple]],
        template: str,
        conflict: bool | None = None,
    ) -> None:
        """Record action dependencies, in order: ``(src, dst, reason args)``.

        ``conflict`` is what is already known about every pair: True
        (Axiom 1 found it), False (program ordered — it can never lift, so
        it is not queued) or None (decided when Definition 10 reaches it).
        A lean object is materialized before anything reaches its ``<·``.
        """
        if sched.oid in self._lean:
            self._materialize(sched)
        graph = sched.action_dep
        queue = watcher = None
        for src, dst, args in edges:
            key = graph.insert_edge(src, dst)
            if key is None:
                continue
            sched.record_reason("action", src, dst, template, *args)
            if conflict is not False:
                if queue is None:
                    queue = self._pending_action.setdefault(sched.oid, [])
                queue.append((key, src, dst, conflict))
            if self.track_cycles:
                # <· is part of <· ∪ <+ on the same object, so a cycle in
                # the action relation closes in the combined watcher at the
                # same insertion; one watcher serves both.
                if watcher is None:
                    watcher = self._watch(self._watch_combined, sched.oid)
                if watcher.add_edge_checked(src, dst):
                    self.violated = True

    def _observe_txn(
        self,
        sched: ObjectSchedule,
        src: ActionNode,
        dst: ActionNode,
        template: str,
        args: tuple,
    ) -> None:
        key = sched.txn_dep.insert_edge(src, dst)
        if key is None:
            return
        sched.record_reason("txn", src, dst, template, *args)
        self._pending_txn.setdefault(sched.oid, []).append((key, src, dst))
        if self.track_cycles:
            if self._watch(self._watch_txn, sched.oid).add_edge_checked(src, dst):
                self.violated = True
            if (
                src.parent is None
                and dst.parent is None
                and src.top != dst.top
            ):
                if self._watch_global.add_edge_checked(src.top, dst.top):
                    self.violated = True
            if src.obj != dst.obj:
                # Definition 15, eagerly: boolean consumers never run the
                # finalize pass.
                self._record_added(sched, src, dst)

    def _record_added(
        self, sched: ObjectSchedule, src: ActionNode, dst: ActionNode
    ) -> None:
        for endpoint_obj in (src.obj, dst.obj):
            target = self.schedules.get(endpoint_obj)
            if target is None or target.added_dep.has_edge(src, dst):
                continue
            if endpoint_obj in self._lean:
                self._materialize(target)
            target.added_dep.add_edge(src, dst)
            target.record_reason(
                "added", src, dst, "Definition 15: recorded from {}", sched.oid
            )
            if self._watch(self._watch_combined, endpoint_obj).add_edge_checked(
                src, dst
            ):
                self.violated = True

    def _watch(
        self, watchers: dict[ObjectId, OnlineTopology], oid: ObjectId
    ) -> OnlineTopology:
        watcher = watchers.get(oid)
        if watcher is None:
            watcher = OnlineTopology()
            watchers[oid] = watcher
        return watcher

    # -- the worklist ---------------------------------------------------------

    def _drain(self) -> None:
        """Process queued edges to the fixpoint, in stratified rounds."""
        while self._pending_action or self._pending_txn:
            if self.track_cycles and self.violated:
                return  # terminal for every boolean consumer
            # Phase 1 — Definition 10 over newly derived action dependencies.
            batch = self._pending_action
            self._pending_action = {}
            for oid in sorted(batch):
                sched = self.schedules[oid]
                entries = batch[oid]
                entries.sort(key=lambda entry: entry[0])
                for _, src, dst, conflict in entries:
                    self._lift(sched, src, dst, conflict)
            # Phase 2 — Definition 11 / cross-object closure over newly
            # derived transaction dependencies (including phase 1's).
            batch = self._pending_txn
            self._pending_txn = {}
            for oid in sorted(batch):
                sched = self.schedules[oid]
                entries = batch[oid]
                entries.sort(key=lambda entry: entry[0])
                for _, src, dst in entries:
                    self._flow(sched, src, dst)

    def _lift(
        self,
        sched: ObjectSchedule,
        src: ActionNode,
        dst: ActionNode,
        conflict: bool | None,
    ) -> None:
        """Definition 10 on one action dependency (``conflict`` as queued)."""
        if conflict is None and not self.commutativity.in_conflict(src, dst):
            return
        caller_src, caller_dst = src.parent, dst.parent
        if caller_src is None or caller_dst is None:
            return
        if caller_src is caller_dst:
            return
        self._observe_txn(
            sched,
            caller_src,
            caller_dst,
            "Definition 10: conflicting actions {} <· {}",
            (src, dst),
        )

    def _flow(self, sched: ObjectSchedule, src: ActionNode, dst: ActionNode) -> None:
        """Definition 11 (or the cross-object closure) on one txn dependency."""
        if src.obj != dst.obj:
            if self.propagate_cross_object:
                self._push_cross(src, dst)
            return
        target = self.schedules.get(src.obj)
        if target is None:
            return
        self._observe_actions(
            target, ((src, dst, (sched.oid,)),), "Definition 11: inherited from {}"
        )

    def _push_cross(self, src: ActionNode, dst: ActionNode) -> None:
        """Lift one cross-object dependency toward a common object.

        A pair of actions on different objects cannot be shown to commute
        (commutativity is per object), so the ordering constraint between
        them is inherited by their callers: the deeper endpoint is replaced
        by its caller until both endpoints are actions on one object (then
        the constraint joins that object's ``<·`` and the usual machinery —
        including commutativity — takes over) or both are top-level roots
        (then it is a top-level ordering constraint).
        """
        pair: tuple[ActionNode, ActionNode] | None = (src, dst)
        while pair is not None:
            left, right = pair
            key = (id(left), id(right))
            if key in self._cross_seen:
                return
            self._cross_seen.add(key)
            if left.parent is None and right.parent is None:
                if (left, right) not in self.top_cross_deps:
                    self.top_cross_deps.add((left, right))
                    if self.track_cycles and left.top != right.top:
                        if self._watch_global.add_edge_checked(left.top, right.top):
                            self.violated = True
                return
            if left.obj == right.obj:
                target = self.schedules.get(left.obj)
                if target is not None and left in target.action_dep \
                        and right in target.action_dep:
                    self._observe_actions(
                        target,
                        ((left, right, (src, dst)),),
                        "cross-object closure (from {} -> {})",
                    )
                    return
            if left.depth > right.depth and left.parent is not None:
                pair = (left.parent, right)
            elif right.depth > left.depth and right.parent is not None:
                pair = (left, right.parent)
            else:
                next_left = left.parent if left.parent is not None else left
                next_right = right.parent if right.parent is not None else right
                if next_left is left and next_right is right:
                    return
                pair = (next_left, next_right)
            if pair[0] is pair[1]:
                return  # same caller: intra-unit, no constraint

    # -- finalize -------------------------------------------------------------

    def _finalize_added(self) -> None:
        """Definition 15 over the finished relations (one-shot runs only):
        iterating them in order fixes the added-edge insertion order — and
        with it combined-graph cycle witnesses — to the reference's."""
        for sched in self.schedules.values():
            for src, dst in sched.txn_dep.iter_edges():
                if src.obj == dst.obj:
                    continue
                for endpoint_obj in (src.obj, dst.obj):
                    target = self.schedules.get(endpoint_obj)
                    if target is not None:
                        target.added_dep.add_edge(src, dst)
                        target.record_reason(
                            "added",
                            src,
                            dst,
                            "Definition 15: recorded from {}",
                            sched.oid,
                        )

