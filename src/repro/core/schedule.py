"""Object schedules and their basic properties (Definitions 6-8).

An *object schedule* ``Sch = (TS, O, <·, ↝)`` is the interleaved execution of
transactions *seen from one object*: the transaction system, the object, an
action dependency relation over ``ACT_O`` and a transaction dependency
relation over ``TRA_O`` (Definition 6).  Seen from the object, the nested
call structure flattens into two levels — accessing actions and calling
transactions.

Three properties are defined here:

- *conform* (Definition 7): the execution respects every precedence that the
  transaction programs prescribe, including precedences inherited from
  calling actions;
- *serial* (Definition 8): top-level transactions are not interleaved on the
  object;
- equivalence and oo-serializability live in
  :mod:`repro.core.serializability` (Definitions 12-13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.actions import ActionNode
from repro.core.graph import DirectedGraph
from repro.core.identifiers import ObjectId
from repro.core.transactions import TransactionSystem


def program_precedes(a: ActionNode, b: ActionNode) -> bool:
    """True iff the transaction program orders ``a`` strictly before ``b``.

    This is the object precedence relation of Definition 7 evaluated on two
    actions: either an ancestor action-set orders the branch of ``a`` before
    the branch of ``b``, or ``a`` (transitively) calls ``b`` — a caller
    starts before everything it calls.
    """
    if a is b or a.root is not b.root:
        return False
    return path_order(call_path(a), call_path(b)) > 0


def call_path(action: ActionNode) -> list[ActionNode]:
    """``action`` and every action calling it, root first."""
    path = [action]
    node = action.parent
    while node is not None:
        path.append(node)
        node = node.parent
    path.reverse()
    return path


def path_order(path_a: list[ActionNode], path_b: list[ActionNode]) -> int:
    """Definition 7 on two distinct actions, given as their call paths.

    Decided once for both directions: 1 if the program orders ``a`` before
    ``b``, -1 if ``b`` before ``a``, 0 if it leaves them unordered (always
    so for actions of different trees).  An ordered pair is also a
    ``same_process`` pair, so by Definition 9 it never conflicts.
    """
    if path_a[0] is not path_b[0]:
        return 0
    shared = min(len(path_a), len(path_b))
    depth = 1
    while depth < shared and path_a[depth] is path_b[depth]:
        depth += 1
    if depth == len(path_a):
        return 1  # a calls b (directly or indirectly)
    if depth == len(path_b):
        return -1
    branch_a, branch_b = path_a[depth], path_b[depth]
    if branch_a.precedes_sibling(branch_b):
        return 1
    if branch_b.precedes_sibling(branch_a):
        return -1
    return 0


@dataclass
class ObjectSchedule:
    """``Sch = (TS, O, <·, ↝)`` plus the added action dependencies of Def. 15.

    The dependency relations are *computed* by
    :class:`repro.core.dependency.IncrementalDependencyEngine`; this class
    stores the result and answers the Definition 7/8 property checks.  Graph
    nodes are :class:`ActionNode` instances (identity-hashed).
    """

    system: TransactionSystem
    oid: ObjectId
    #: ACT_O in execution (seq) order
    actions: list[ActionNode] = field(default_factory=list)
    #: TRA_O — the direct callers of actions on O
    transactions: list[ActionNode] = field(default_factory=list)
    #: the action dependency relation <· over ACT_O (Definition 11)
    action_dep: DirectedGraph = field(default_factory=DirectedGraph)
    #: the transaction dependency relation ↝ over TRA_O (Definition 10)
    txn_dep: DirectedGraph = field(default_factory=DirectedGraph)
    #: the added action dependency relation over ACT_O ∪ ADD_O (Definition 15)
    added_dep: DirectedGraph = field(default_factory=DirectedGraph)
    #: provenance: (relation, src aid, dst aid) -> (template, args); the
    #: reason text is only rendered on demand (``explain``/``describe``)
    reasons: dict = field(default_factory=dict)

    # -- Definition 7 --------------------------------------------------------

    def is_conform(self) -> bool:
        """The execution order on O respects all program precedences."""
        for i, first in enumerate(self.actions):
            for second in self.actions[i + 1 :]:
                # ``actions`` is sorted by seq, so ``first`` ran first; the
                # program must not demand the opposite order.
                if program_precedes(second, first):
                    return False
        return True

    # -- Definition 8 --------------------------------------------------------

    def is_serial(self) -> bool:
        """Top-level transactions do not interleave on this object.

        Condition (i) — totality of the execution order — holds by
        construction (``seq`` stamps are totally ordered); condition (ii) is
        checked as non-overlap of the per-transaction seq ranges.
        """
        ranges: dict[str, tuple[int, int]] = {}
        for action in self.actions:
            lo, hi = ranges.get(action.top, (action.seq, action.seq))
            ranges[action.top] = (min(lo, action.seq), max(hi, action.seq))
        spans = sorted(ranges.values())
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            if lo <= hi:
                return False
        return True

    # -- views ----------------------------------------------------------------

    def combined_dependencies(self) -> DirectedGraph:
        """``<· ∪ <+`` — the relation whose acyclicity Definition 16(ii) demands."""
        return self.action_dep.union(self.added_dep)

    def txn_dep_pairs(self) -> set[tuple[str, str]]:
        """Transaction dependency edges as (caller label, caller label) pairs."""
        return {(src.label, dst.label) for src, dst in self.txn_dep.iter_edges()}

    def top_level_projection(self) -> DirectedGraph:
        """Project ↝ onto top-level transactions (dropping intra-transaction
        edges).  Acyclicity of this projection is exactly the existence of an
        equivalent serial object schedule (Definitions 12-13(i))."""
        projection: DirectedGraph = DirectedGraph()
        for txn in {a.top for a in self.actions}:
            projection.add_node(txn)
        for src, dst in self.txn_dep.iter_edges():
            if src.top != dst.top:
                projection.add_edge(src.top, dst.top)
        return projection

    def serial_witness(self) -> list[str] | None:
        """One serial order of this object's transactions compatible with
        ``↝`` (the Definition 13(i) witness), or None if a cycle forbids it."""
        try:
            order = self.txn_dep.topological_order()
        except ValueError:
            return None
        return [caller.label for caller in order]

    def record_reason(self, relation: str, src, dst, template: str, *args) -> None:
        """Remember why an edge was added (first reason wins).

        Lazy: only the format template and its arguments are stored; the
        text is rendered when somebody actually asks (``explain``,
        ``describe(verbose=True)``, counterexample paths).  Clean runs —
        the overwhelming majority — never pay the f-string per edge.
        """
        self.reasons.setdefault((relation, src.aid, dst.aid), (template, args))

    def explain(self, relation: str, src, dst) -> str:
        """The provenance of one dependency edge, or '(unknown)'."""
        entry = self.reasons.get((relation, src.aid, dst.aid))
        if entry is None:
            return "(unknown)"
        template, args = entry
        return template.format(*args) if args else template

    def describe(self, *, verbose: bool = False) -> str:
        """A compact, printable rendering used by the figure benches.

        With ``verbose=True`` each dependency carries its provenance
        (Axiom 1 order, inheriting object, Definition 7 precedence, ...).
        """
        lines = [f"object {self.oid}:"]
        lines.append("  actions: " + ", ".join(a.label for a in self.actions))
        edges = sorted(self.txn_dep.iter_edges(), key=lambda e: (e[0].aid, e[1].aid))
        if edges:
            for src, dst in edges:
                suffix = (
                    f"   [{self.explain('txn', src, dst)}]" if verbose else ""
                )
                lines.append(f"  txn-dep: {src.label} -> {dst.label}{suffix}")
        else:
            lines.append("  txn-dep: (none)")
        return "\n".join(lines)
