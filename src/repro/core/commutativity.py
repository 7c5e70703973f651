"""Commutativity specifications (Definition 9).

The paper assumes *"a commutativity matrix for every object for all their
actions.  It specifies for every action pair if they commute or if they are
in conflict."*  The matrix may depend on parameter values and object state
(the escrow method, refs [9, 14, 17] of the paper), which is why every
specification here receives full :class:`~repro.core.actions.Invocation`
values rather than bare method names.

Definition 9 also exempts actions of the same *process*: changes made by an
action may be perceived by a later action of the same process; that is a
question of correct serial implementation, not of concurrency.  The
:class:`CommutativityRegistry` applies this exemption in
:meth:`CommutativityRegistry.in_conflict`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable

from repro.errors import CommutativityError
from repro.core.actions import ActionNode, Invocation, same_process
from repro.core.identifiers import ObjectId, original_object_id

PairwisePredicate = Callable[[Invocation, Invocation], bool]


class CommutativitySpec(ABC):
    """Decides whether two invocations on one object commute."""

    @abstractmethod
    def commutes(self, first: Invocation, second: Invocation) -> bool:
        """True iff the two invocations commute (symmetric)."""

    def conflicts(self, first: Invocation, second: Invocation) -> bool:
        return not self.commutes(first, second)


class ConflictAll(CommutativitySpec):
    """The most conservative specification: every action pair conflicts.

    This is the implicit specification of an object whose semantics are
    unknown; using it everywhere degrades oo-serializability to conventional
    operation-level serializability.
    """

    def commutes(self, first: Invocation, second: Invocation) -> bool:
        return False


class ReadWriteCommutativity(CommutativitySpec):
    """Classical read/write semantics: only two reads commute.

    This is the page-level specification: ``Page.read`` commutes with
    ``Page.read``; every pair involving ``Page.write`` conflicts.  Unknown
    methods are treated as writes (conservative).
    """

    def __init__(self, read_methods: Iterable[str] = ("read",)):
        self.read_methods = frozenset(read_methods)

    def commutes(self, first: Invocation, second: Invocation) -> bool:
        return first.method in self.read_methods and second.method in self.read_methods


class PredicateCommutativity(CommutativitySpec):
    """Commutativity decided by an arbitrary symmetric predicate."""

    def __init__(self, predicate: PairwisePredicate, description: str = ""):
        self._predicate = predicate
        self.description = description

    def commutes(self, first: Invocation, second: Invocation) -> bool:
        return bool(self._predicate(first, second) or self._predicate(second, first))


class MatrixCommutativity(CommutativitySpec):
    """A commutativity matrix over method names, optionally parameterized.

    ``matrix`` maps unordered method-name pairs to either a boolean or a
    predicate over the two invocations.  Pairs are normalized, so
    ``("insert", "search")`` and ``("search", "insert")`` denote one entry.
    Method pairs without an entry fall back to ``default`` (conflict, unless
    stated otherwise — the safe direction).

    Example — the paper's B+-tree leaf (Example 1): two ``insert`` actions
    commute iff they insert *different* keys; ``insert``/``search`` conflict
    iff they touch the *same* key::

        leaf_spec = MatrixCommutativity({
            ("insert", "insert"): lambda a, b: a.args[0] != b.args[0],
            ("insert", "search"): lambda a, b: a.args[0] != b.args[0],
            ("search", "search"): True,
        })
    """

    def __init__(
        self,
        matrix: dict[tuple[str, str], bool | PairwisePredicate],
        default: bool = False,
    ):
        self._matrix: dict[tuple[str, str], bool | PairwisePredicate] = {}
        self.default = default
        for (m1, m2), value in matrix.items():
            key = self._key(m1, m2)
            if key in self._matrix and self._matrix[key] is not value:
                raise CommutativityError(
                    f"conflicting matrix entries for method pair {key}"
                )
            self._matrix[key] = value

    @staticmethod
    def _key(m1: str, m2: str) -> tuple[str, str]:
        return (m1, m2) if m1 <= m2 else (m2, m1)

    def commutes(self, first: Invocation, second: Invocation) -> bool:
        entry = self._matrix.get(self._key(first.method, second.method))
        if entry is None:
            return self.default
        if callable(entry):
            # Entries are written for the normalized (sorted) method order.
            if (first.method, second.method) == self._key(first.method, second.method):
                return bool(entry(first, second))
            return bool(entry(second, first))
        return bool(entry)


class EscrowCommutativity(CommutativitySpec):
    """Escrow-style commutativity for bounded numeric objects.

    Increments always commute with increments and decrements always commute
    with decrements; an increment and a decrement commute as long as neither
    order can push the value outside ``[low, high]`` — which, with unknown
    interleaved history, we approximate by requiring both state snapshots
    (when available) to tolerate both operations in either order.  Reads
    conflict with updates (they observe the value) and commute with reads.

    This reproduces the paper's reference to the escrow method ([9, 14, 17]):
    including "parameter values and the status of accessed objects in the
    commutativity definition".
    """

    def __init__(
        self,
        increment: str = "deposit",
        decrement: str = "withdraw",
        read: str = "balance",
        low: float | None = 0.0,
        high: float | None = None,
    ):
        self.increment = increment
        self.decrement = decrement
        self.read = read
        self.low = low
        self.high = high

    def _delta(self, inv: Invocation) -> float | None:
        if inv.method == self.increment:
            return float(inv.args[0]) if inv.args else 1.0
        if inv.method == self.decrement:
            return -(float(inv.args[0]) if inv.args else 1.0)
        return None

    def commutes(self, first: Invocation, second: Invocation) -> bool:
        if first.method == self.read and second.method == self.read:
            return True
        if first.method == self.read or second.method == self.read:
            return False  # a read observes the current value
        delta1 = self._delta(first)
        delta2 = self._delta(second)
        if delta1 is None or delta2 is None:
            return False  # unknown method: conservative
        if delta1 >= 0 and delta2 >= 0:
            return self.high is None or self._both_orders_ok(first, second)
        if delta1 <= 0 and delta2 <= 0:
            return self.low is None or self._both_orders_ok(first, second)
        # Mixed increment/decrement: both orders must respect the bounds.
        return self._both_orders_ok(first, second)

    def _both_orders_ok(self, first: Invocation, second: Invocation) -> bool:
        """Check both execution orders against the bounds, given state.

        Without a state snapshot we cannot prove safety, so we conservatively
        report a conflict (the lock manager then serializes the pair).  When
        the two invocations carry *different* snapshots (taken at different
        request times), safety must hold under every one of them — anything
        else would make the commutativity test order-dependent.
        """
        states = {
            float(inv.state) for inv in (first, second) if inv.state is not None
        }
        if not states:
            return False
        delta1 = self._delta(first) or 0.0
        delta2 = self._delta(second) or 0.0
        for value in states:
            for order in ((delta1, delta2), (delta2, delta1)):
                running = value
                for delta in order:
                    running += delta
                    if self.low is not None and running < self.low:
                        return False
                    if self.high is not None and running > self.high:
                        return False
        return True


class CommutativityRegistry:
    """Maps objects to their commutativity specifications.

    Lookup order: exact object id, then registered prefix rules (longest
    prefix first), then the default specification.  Virtual objects created
    by the Definition 5 extension inherit their original's specification.
    """

    def __init__(self, default: CommutativitySpec | None = None):
        self.default = default if default is not None else ConflictAll()
        self._exact: dict[ObjectId, CommutativitySpec] = {}
        self._prefixes: list[tuple[str, CommutativitySpec]] = []

    def copy(self) -> "CommutativityRegistry":
        """A registry with the same mappings that can be mutated freely.

        Specifications themselves are shared (they are immutable); only the
        lookup tables are copied.  The judge's ablation uses this to break
        entries without contaminating the scheduler's live registry.
        """
        clone = CommutativityRegistry(default=self.default)
        clone._exact = dict(self._exact)
        clone._prefixes = list(self._prefixes)
        return clone

    def register(self, oid: ObjectId, spec: CommutativitySpec) -> None:
        """Register the specification of one object."""
        self._exact[oid] = spec

    def register_prefix(self, prefix: str, spec: CommutativitySpec) -> None:
        """Register a specification for every object id with this prefix.

        Useful for object families such as ``Page*`` or ``Leaf*``.
        """
        self._prefixes.append((prefix, spec))
        self._prefixes.sort(key=lambda item: len(item[0]), reverse=True)

    def for_object(self, oid: ObjectId) -> CommutativitySpec:
        oid = original_object_id(oid)
        if oid in self._exact:
            return self._exact[oid]
        for prefix, spec in self._prefixes:
            if oid.startswith(prefix):
                return spec
        return self.default

    # -- Definition 9 ---------------------------------------------------------

    def commute(self, a: ActionNode, b: ActionNode) -> bool:
        """Definition 9: same-process actions always commute; otherwise ask
        the object's specification."""
        if same_process(a, b):
            return True
        return self.for_object(a.obj).commutes(a.invocation(), b.invocation())

    def in_conflict(self, a: ActionNode, b: ActionNode) -> bool:
        if a.obj != b.obj and original_object_id(a.obj) != original_object_id(b.obj):
            raise CommutativityError(
                f"conflict is only defined for actions on one object: "
                f"{a.label} vs {b.label}"
            )
        return not self.commute(a, b)
