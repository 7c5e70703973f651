"""Equivalence and oo-serializability (Definitions 12-16), plus the
conventional conflict-serializability baseline the paper argues against.

- Definition 12: two object schedules are *equivalent* iff they have the
  same transaction dependency relation.
- Definition 13: an object schedule is *oo-serializable* iff (i) an
  equivalent serial object schedule exists — equivalently, the transaction
  dependency relation projected onto top-level transactions is acyclic — and
  (ii) the action dependency relation is acyclic (contradicting inherited
  dependencies signify access to an inconsistent state).
- Definition 14: a *system schedule* is the set of all object schedules.
- Definition 15: the added action dependency relation (cross-object
  transaction dependencies recorded redundantly at both objects).
- Definition 16: the system schedule is oo-serializable iff every object
  schedule is oo-serializable and, per object, ``<· ∪ <+`` is acyclic.

The conventional baseline treats every primitive action as a read/write on
its object and demands one global conflict order over top-level
transactions; comparing the two sets of induced ordering constraints is the
quantitative content of the paper's "lower rate of conflicting accesses"
claim (bench C1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.actions import ActionNode, same_process
from repro.core.commutativity import CommutativityRegistry
from repro.core.dependency import IncrementalDependencyEngine
from repro.core.graph import DirectedGraph
from repro.core.identifiers import ObjectId, original_object_id
from repro.core.schedule import ObjectSchedule
from repro.core.transactions import TransactionSystem


@dataclass
class ObjectVerdict:
    """Definition 13 evaluated on one object schedule."""

    oid: ObjectId
    conform: bool
    serial: bool
    serial_equivalent_exists: bool  # Def 13 (i)
    action_dep_acyclic: bool  # Def 13 (ii)
    combined_acyclic: bool  # Def 16 (ii): <· ∪ <+ acyclic
    action_cycle: list[str] | None = None
    top_cycle: list[str] | None = None

    @property
    def oo_serializable(self) -> bool:
        return self.serial_equivalent_exists and self.action_dep_acyclic


@dataclass
class SystemVerdict:
    """Definition 16 evaluated on a whole system schedule."""

    object_verdicts: dict[ObjectId, ObjectVerdict]
    #: union over objects of the top-level projections of ↝ (diagnostic view)
    global_top_graph: DirectedGraph = field(default_factory=DirectedGraph)
    #: one equivalent global serial order of top-level transactions, if any
    serial_order: list[str] | None = None

    @property
    def oo_serializable(self) -> bool:
        """Definition 16, with the system object made explicit.

        Dependencies between transaction roots are action dependencies of
        the *system object's* schedule; their acyclicity (checked on
        ``global_top_graph``) is Definition 13(ii) applied to ``S`` rather
        than an extra condition.
        """
        return self.global_top_graph.is_acyclic() and all(
            verdict.oo_serializable and verdict.combined_acyclic
            for verdict in self.object_verdicts.values()
        )

    @property
    def top_order_constraints(self) -> set[tuple[str, str]]:
        """The ordering constraints oo-serializability imposes on top-level
        transactions — the quantity compared against the conventional
        criterion in bench C1."""
        return set(self.global_top_graph.edges)

    def describe(self) -> str:
        lines = []
        for oid in sorted(self.object_verdicts):
            verdict = self.object_verdicts[oid]
            lines.append(
                f"{oid}: oo-serializable={verdict.oo_serializable} "
                f"(serial-equivalent={verdict.serial_equivalent_exists}, "
                f"action-dep-acyclic={verdict.action_dep_acyclic}, "
                f"combined-acyclic={verdict.combined_acyclic})"
            )
        lines.append(f"system oo-serializable: {self.oo_serializable}")
        if self.serial_order is not None:
            lines.append("equivalent serial order: " + " < ".join(self.serial_order))
        return "\n".join(lines)


def judge_object(sched: ObjectSchedule) -> ObjectVerdict:
    """Evaluate Definitions 7, 8, 13 and 16(ii) on one object schedule.

    Definition 13(i) — "there exists an equivalent serial object schedule"
    — is checked as acyclicity of the transaction dependency relation over
    the object's *transactions* ``TRA_O``, i.e. over the calling actions:
    "a calling action plays its part as a transaction".  Projecting onto
    top-level transactions instead would reject schedules whose page-level
    dependencies disagree with every top-level order even though all the
    calling subtransactions commute — exactly the schedules Example 1
    admits.  Contradictions between top-level transactions still surface:
    when conflicts propagate, the callers eventually *are* the transaction
    roots, and the cycle appears there (or in the system-level graph).
    """
    txn_cycle = sched.txn_dep.find_cycle()
    action_cycle = sched.action_dep.find_cycle()
    combined_cycle = sched.combined_dependencies().find_cycle()
    return ObjectVerdict(
        oid=sched.oid,
        conform=sched.is_conform(),
        serial=sched.is_serial(),
        serial_equivalent_exists=txn_cycle is None,
        action_dep_acyclic=action_cycle is None,
        combined_acyclic=combined_cycle is None,
        action_cycle=[a.label for a in action_cycle] if action_cycle else None,
        top_cycle=[a.label for a in txn_cycle] if txn_cycle else None,
    )


def analyze_system(
    system: TransactionSystem,
    commutativity: CommutativityRegistry,
    *,
    extend: bool = True,
    propagate_cross_object: bool = True,
) -> tuple[SystemVerdict, dict[ObjectId, ObjectSchedule]]:
    """Run the full pipeline: extension, dependency inheritance, verdicts.

    Returns the system verdict together with every object schedule so that
    callers (examples, benches) can print the per-object dependency tables of
    Figures 4, 7 and 8.  The system is mutated first: methods are re-stamped
    at their first own-object effect
    (:func:`~repro.core.dependency.linearize_effects`), then the
    Definition 5 extension is applied unless ``extend=False`` (only to
    demonstrate why it is needed, ablation bench A2: verdicts on unextended
    systems with call cycles are not trustworthy).
    ``propagate_cross_object=False`` selects the literal Definition 15/16
    reading (see the module docstring of :mod:`repro.core.dependency` and
    DESIGN.md for why the closure is the default).
    """
    engine = IncrementalDependencyEngine(
        system,
        commutativity,
        propagate_cross_object=propagate_cross_object,
        extend=extend,
    )
    schedules = engine.run()
    return system_verdict(system, schedules, engine.top_cross_deps), schedules


def system_verdict(
    system: TransactionSystem,
    schedules: dict[ObjectId, ObjectSchedule],
    top_cross_deps: set[tuple[ActionNode, ActionNode]],
) -> SystemVerdict:
    """Definition 16 on computed object schedules plus the top-level
    ordering constraints the cross-object closure discovered."""
    verdicts = {oid: judge_object(sched) for oid, sched in schedules.items()}

    # Only dependencies that propagate all the way to the transaction roots
    # constrain the order of top-level transactions: a dependency that stops
    # at a commuting level "can be neglected" above it (Example 1).  This is
    # where oo-serializability imposes strictly fewer ordering constraints
    # than the conventional criterion.
    global_top = DirectedGraph()
    for txn in system.tops:
        global_top.add_node(txn.label)
    for sched in schedules.values():
        for graph in (sched.txn_dep, sched.added_dep):
            for src, dst in graph.iter_edges():
                if src.parent is None and dst.parent is None and src.top != dst.top:
                    global_top.add_edge(src.top, dst.top)
    for src, dst in top_cross_deps:
        if src.top != dst.top:
            global_top.add_edge(src.top, dst.top)

    verdict = SystemVerdict(object_verdicts=verdicts, global_top_graph=global_top)
    if verdict.oo_serializable and global_top.is_acyclic():
        verdict.serial_order = global_top.topological_order()
    return verdict


def equivalent(first: ObjectSchedule, second: ObjectSchedule) -> bool:
    """Definition 12: equality of the transaction dependency relations.

    Dependencies are compared by action identity when both schedules share a
    system, and by action label otherwise (so that a re-executed schedule can
    be compared against a reference)."""
    if first.system is second.system:
        first_edges = {(id(a), id(b)) for a, b in first.txn_dep.edges}
        second_edges = {(id(a), id(b)) for a, b in second.txn_dep.edges}
        return first_edges == second_edges
    return first.txn_dep_pairs() == second.txn_dep_pairs()


# -- the conventional baseline -------------------------------------------------


#: the one method the baseline reads as a page read; every other is a write
READ = "read"


@dataclass(frozen=True)
class ConventionalBaseline:
    """Conflict-order-preserving serializability over page reads and writes.

    This is the criterion the paper calls "too restrictive" (Example 1):
    two primitive actions on one object conflict unless both are reads.  A
    conflicting pair of different top-level transactions orders them in
    execution order (``constraints``); ``pairs`` also counts a pair between
    concurrent processes of one transaction (Definition 9), which orders
    nothing.  ``serializable`` is the acyclicity of ``constraints``.
    """

    constraints: set[tuple[str, str]]
    pairs: int
    serializable: bool


def conventional_baseline(system: TransactionSystem) -> ConventionalBaseline:
    """The conventional criterion on ``system``'s executed primitives.

    Only real actions count: Definition 5's virtual duplicates are skipped,
    an action they hang off still counts as primitive, and a primitive
    moved to a virtual object ``O′`` is judged on its home object ``O``.
    The result therefore does not depend on whether an analysis extended
    ``system`` first.  One pass groups the primitives by object, sorts each
    group once and reads constraints, pair count and verdict from the same
    pairs.
    """
    by_object: dict[ObjectId, list[ActionNode]] = {}
    for action in system.all_actions():
        if action.virtual:
            continue
        if any(not child.virtual for child in action.children):
            continue
        by_object.setdefault(original_object_id(action.obj), []).append(action)
    constraints: set[tuple[str, str]] = set()
    pairs = 0
    for group in by_object.values():
        group.sort(key=lambda a: (a.seq, a.aid))
        for i, first in enumerate(group):
            reads = first.method == READ
            for second in group[i + 1 :]:
                if reads and second.method == READ:
                    continue
                if first.top != second.top:
                    constraints.add((first.top, second.top))
                elif same_process(first, second):
                    continue
                pairs += 1
    return ConventionalBaseline(
        constraints=constraints,
        pairs=pairs,
        serializable=DirectedGraph(constraints).is_acyclic(),
    )
