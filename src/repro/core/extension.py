"""The extension of a transaction system (Definition 5, Example 3/Figure 6).

If a transaction ``t`` calls an action ``a`` directly or indirectly and both
access the same object ``O``, the call path forms a cycle over ``O`` — the
paper's running instance is the B-link split, where ``Node6.insert`` ends up
calling ``Node6.rearrange`` through the leaf level.  Because the model must
distinguish the *actions* of an object from the *transactions* on it, the
system is extended:

- a fresh virtual object ``O′`` is added;
- the deeper action ``a`` is re-targeted to ``O′`` (``ACT_O := ACT_O - {a}``);
- every remaining action ``b`` on ``O`` is *virtually duplicated*: a virtual
  action ``b′`` on ``O′`` is added as a call child of ``b``, so that the
  dependencies recorded at ``O′`` are inherited along these call
  relationships back to the original object (via Definition 10).

The construction is iterated until no action has a proper call ancestor on
its own object.  Virtual duplicates inherit the ``seq`` stamp of their
original, so the Axiom 1 order on the virtual object replays the original
execution order.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.actions import ActionNode
from repro.core.identifiers import ObjectId, VIRTUAL_MARKER, original_object_id
from repro.core.transactions import TransactionSystem


@dataclass
class ExtensionResult:
    """Outcome of :func:`extend_system` (the system is modified in place)."""

    system: TransactionSystem
    #: virtual object id -> object id it was split from
    virtual_objects: dict[ObjectId, ObjectId] = field(default_factory=dict)
    #: actions re-targeted from an original object to a virtual object
    moved: list[ActionNode] = field(default_factory=list)
    #: virtual duplicate actions added as children of originals
    duplicates: list[ActionNode] = field(default_factory=list)

    @property
    def was_extended(self) -> bool:
        return bool(self.virtual_objects)

    def summary(self) -> str:
        if not self.was_extended:
            return "no call cycles; system unchanged"
        lines = []
        for virtual, source in sorted(self.virtual_objects.items()):
            moved_here = [m.label for m in self.moved if m.obj == virtual]
            dup_count = sum(1 for d in self.duplicates if d.obj == virtual)
            lines.append(
                f"{virtual}: split from {source}, moved {moved_here}, "
                f"{dup_count} virtual duplicate(s)"
            )
        return "\n".join(lines)


def find_offending_action(
    system: TransactionSystem, tops: Iterable | None = None
) -> ActionNode | None:
    """Find an action with a proper call ancestor on the same object.

    Such an action violates the premise that, seen from one object, callers
    (transactions) and accessors (actions) are disjoint roles.  Returns the
    first offender in deterministic (transaction, aid) order, or None.
    ``tops`` restricts the scan to the given transactions' trees (a call
    cycle lies within one tree, so scanning only newly appended trees is
    sound when the rest of the system is already extension-free).
    """
    for txn in system.tops if tops is None else tops:
        for action in txn.actions():
            if action.virtual:
                continue
            for ancestor in action.ancestors():
                if ancestor.obj == action.obj:
                    return action
    return None


def extend_system(
    system: TransactionSystem, tops: Iterable | None = None
) -> ExtensionResult:
    """Apply Definition 5 until the system is free of call cycles.

    Mutates ``system`` in place and returns an :class:`ExtensionResult`
    describing the virtual objects, moved actions and duplicates.  Calling
    this on an already-extended system is a no-op.

    ``tops`` restricts the *offender scan* to the given transactions' trees
    — used by the incremental analyses when appending a transaction to an
    already-extended system.  Peer duplication is never restricted: once an
    offender is found, every action on its object (whichever tree it lives
    in) is virtually duplicated, exactly as in the unrestricted pass.  Nor
    does an appended tree escape an earlier split: its actions on a split
    object are first duplicated onto every virtual object split from it
    (:attr:`TransactionSystem.splits`, in split order), as they would have
    been had the tree been present when the split happened.
    """
    result = ExtensionResult(system=system)
    generations: dict[ObjectId, int] = {}
    if tops is not None and system.splits:
        _join_splits(system, tops, result)

    while True:
        offender = find_offending_action(system, tops)
        if offender is None:
            break
        _break_cycle(system, offender, generations, result)
    return result


def _break_cycle(
    system: TransactionSystem,
    offender: ActionNode,
    generations: dict[ObjectId, int],
    result: ExtensionResult,
) -> None:
    source_object = offender.obj
    base = original_object_id(source_object)
    generations[base] = generations.get(base, 0) + 1
    virtual_object = base + VIRTUAL_MARKER * generations[base]
    while virtual_object in result.virtual_objects or virtual_object in system.objects:
        generations[base] += 1
        virtual_object = base + VIRTUAL_MARKER * generations[base]

    # Snapshot ACT_O before mutating: these are the actions to duplicate.
    peers = [a for a in system.actions_on(source_object) if a is not offender]

    offender.obj = virtual_object
    result.virtual_objects[virtual_object] = source_object
    result.moved.append(offender)
    system.declare_object(virtual_object)
    system.splits[virtual_object] = source_object

    for peer in peers:
        result.duplicates.append(_duplicate(peer, virtual_object))


def _join_splits(
    system: TransactionSystem, tops: Iterable, result: ExtensionResult
) -> None:
    """Duplicate the appended trees' actions onto the earlier splits.

    Splits are replayed in the order they happened, so an action
    duplicated onto ``O′`` is itself duplicated onto a later ``O″`` split
    from ``O′`` — the one-shot extension's peers, restricted to the new
    trees.
    """
    on: dict[ObjectId, list[ActionNode]] = {}
    for txn in tops:
        for action in txn.actions():
            if not action.virtual:
                on.setdefault(action.obj, []).append(action)
    for virtual_object, source_object in system.splits.items():
        for peer in on.get(source_object, ()):
            duplicate = _duplicate(peer, virtual_object)
            result.duplicates.append(duplicate)
            on.setdefault(virtual_object, []).append(duplicate)


def _duplicate(peer: ActionNode, virtual_object: ObjectId) -> ActionNode:
    """Hang ``peer``'s virtual duplicate on ``virtual_object`` off it."""
    duplicate = ActionNode(
        aid=peer.aid + (len(peer.children) + 1,),
        obj=virtual_object,
        method=peer.method,
        args=peer.args,
        parent=peer,
        top=peer.top,
        seq=peer.seq,  # replay the original Axiom 1 order on O′
        state=peer.state,
        virtual=True,
        original=peer,
    )
    if peer.children:
        peer.children.append(duplicate)
    else:
        peer.children = [duplicate]
    return duplicate
