"""Object-oriented transactions and transaction systems (Definitions 2 and 4).

An *oo-transaction* is a tree of actions: the root is the originating action,
arcs are the call relationship, and each action set carries a precedence
partial order (Definition 2, Example 2 / Figure 5 of the paper).

A *transaction system* ``TS = (OBJ, TOP)`` consists of a set of objects with
a distinguished system object ``S`` and a set of top-level transactions,
which are oo-transactions on ``S`` (Definition 4).  Top-level transactions
are the working units of the application programmer; executed serially they
preserve database consistency.

The system also carries the global execution sequence counter that totally
orders primitive actions — the raw material for Axiom 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import ModelError
from repro.core.actions import ActionNode
from repro.core.identifiers import SYSTEM_OBJECT, ObjectId, is_virtual


class OOTransaction:
    """A top-level transaction: an oo-transaction on the system object.

    The transaction *is* its root action (the paper writes ``T`` for both);
    this wrapper adds the user-facing label and builder conveniences.
    """

    def __init__(self, label: str, root: ActionNode):
        self.label = label
        self.root = root

    def call(self, obj: ObjectId, method: str, args: tuple = (), **kwargs) -> ActionNode:
        """Send a message directly from the transaction (a child of the root)."""
        return self.root.call(obj, method, args, **kwargs)

    def actions(self) -> Iterator[ActionNode]:
        """All actions of the transaction, including the root itself."""
        return self.root.iter_subtree()

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"<OOTransaction {self.label}>"

    def pretty(self) -> str:
        return self.root.pretty()


class TransactionSystem:
    """An oo-transaction system ``TS = (OBJ, TOP)`` (Definition 4)."""

    def __init__(self) -> None:
        self._tops: list[OOTransaction] = []
        self._by_label: dict[str, OOTransaction] = {}
        self._declared_objects: set[ObjectId] = {SYSTEM_OBJECT}
        self._seq_counter: list[int] = [0]
        #: Definition 5 splits so far: virtual object -> the object it was
        #: split from, in split order (:mod:`repro.core.extension`)
        self.splits: dict[ObjectId, ObjectId] = {}

    # -- construction ------------------------------------------------------

    def transaction(self, label: str | None = None) -> OOTransaction:
        """Create a new top-level transaction (an action on the system object)."""
        index = len(self._tops) + 1
        label = label or f"T{index}"
        if label in self._by_label:
            raise ModelError(f"duplicate top-level transaction label {label!r}")
        root = ActionNode(
            aid=(index,),
            obj=SYSTEM_OBJECT,
            method=label,
            top=label,
        )
        # Share one counter across all transactions so that ``seq`` totally
        # orders primitive actions system-wide (the Axiom 1 bootstrap).
        root._seq_counter = self._seq_counter
        root.seq = self._next_seq()
        txn = OOTransaction(label, root)
        self.adopt(txn)
        return txn

    def adopt(self, txn: OOTransaction) -> None:
        """Make ``txn`` a member of TOP; a no-op when it already is one.

        The one way into ``_tops``: projections and the incremental
        analyses share trees built by another system and enter them here.
        """
        member = self._by_label.get(txn.label)
        if member is txn:
            return
        if member is not None:
            raise ModelError(
                f"duplicate top-level transaction label {txn.label!r}"
            )
        self._by_label[txn.label] = txn
        self._tops.append(txn)

    def retire_tops(self) -> None:
        """Empty TOP and forget the virtual objects split for its trees.

        For an analysis-private system whose owner is done with the trees
        it adopted (:meth:`repro.core.certify.OnlineCertifier.seal`); the
        trees themselves and the stamp clock are untouched.  Virtual names
        go with the trees that carried them, so the Definition 5 extension
        of a later tree starts again at ``O′`` instead of walking past
        every name the system ever used.
        """
        self._tops.clear()
        self._by_label.clear()
        self._declared_objects = {
            oid for oid in self._declared_objects if not is_virtual(oid)
        }
        self.splits.clear()

    def declare_object(self, oid: ObjectId) -> ObjectId:
        """Add an object to OBJ even if no action accesses it yet."""
        self._declared_objects.add(oid)
        return oid

    def _next_seq(self) -> int:
        self._seq_counter[0] += 1
        return self._seq_counter[0]

    def order_primitives(self, primitives: Iterable[ActionNode]) -> None:
        """Impose an explicit execution order on primitive actions.

        Reassigns ``seq`` so that the given primitives are ordered exactly as
        listed (and after every action not listed).  This is how the figure
        benches construct the paper's hand-drawn schedules, e.g. "assume
        ``Page4712.write`` by T1 is executed before ``Page4712.read`` by T2".
        """
        nodes = list(primitives)
        for node in nodes:
            if not node.is_primitive:
                raise ModelError(
                    f"{node.label} is not primitive; Axiom 1 orders primitives"
                )
        base = self._seq_counter[0]
        for offset, node in enumerate(nodes, start=1):
            node.seq = base + offset
        self._seq_counter[0] = base + len(nodes)

    # -- queries (Definitions 4-6) -------------------------------------------

    @property
    def tops(self) -> list[OOTransaction]:
        return list(self._tops)

    def top(self, label: str) -> OOTransaction:
        try:
            return self._by_label[label]
        except KeyError:
            raise ModelError(
                f"no top-level transaction labelled {label!r}"
            ) from None

    @property
    def objects(self) -> set[ObjectId]:
        """The set OBJ: declared objects plus every object with an action."""
        objs = set(self._declared_objects)
        for action in self.all_actions():
            objs.add(action.obj)
        return objs

    def all_actions(self) -> Iterator[ActionNode]:
        for txn in self._tops:
            yield from txn.actions()

    def actions_on(self, oid: ObjectId) -> list[ActionNode]:
        """The set ``ACT_O``: actions accessing ``oid``, in seq order."""
        found = [a for a in self.all_actions() if a.obj == oid]
        found.sort(key=lambda a: (a.seq, a.aid))
        return found

    def primitive_actions_on(self, oid: ObjectId) -> list[ActionNode]:
        """The set ``PR_O`` (Definition 3), in seq order."""
        return [a for a in self.actions_on(oid) if a.is_primitive]

    def transactions_on(self, oid: ObjectId) -> list[ActionNode]:
        """The set ``TRA_O`` (Definition 6): direct callers of actions on O.

        Seen from the object, the nested structure flattens to two levels:
        actions accessing the object, and the calling actions, which play the
        part of transactions for this object.
        """
        callers: list[ActionNode] = []
        seen: set[int] = set()
        for action in self.actions_on(oid):
            caller = action.parent
            if caller is not None and id(caller) not in seen:
                seen.add(id(caller))
                callers.append(caller)
        callers.sort(key=lambda a: (a.seq, a.aid))
        return callers

    def __repr__(self) -> str:
        return (
            f"<TransactionSystem tops={[t.label for t in self._tops]} "
            f"objects={len(self.objects)}>"
        )

    def pretty(self) -> str:
        """Render every transaction tree, in order."""
        return "\n".join(txn.pretty() for txn in self._tops)
