"""The exact judge: independent verification of committed histories.

Every history a protocol commits — in a fuzz cell, a crash leg, a shard
unit or a service run — is replayed through the paper's own
machinery (Definitions 10-16 on the committed projection, via
:func:`repro.core.serializability.analyze_system`) *and* through the
conventional page-level conflict-serializability baseline.  The oracle
asserts the central theorem — protocol-accepted histories are
oo-serializable — and measures the admission-rate delta: the fraction of
histories that oo-serializability admits but the conventional criterion
rejects (the paper's "lower rate of conflicting accesses" made
quantitative).

**Oracle strictness is per protocol.**  The repo's default analysis adds a
cross-object closure on top of the paper (DESIGN.md §5): a cross-object
transaction dependency is lifted through the callers until both endpoints
share an object or both are roots, because commutativity — defined per
object — can never excuse a cross-object pair.  That lift-to-tops encodes
an assumption: every conflict a transaction creates is still *its*
conflict at commit time.  Protocols that hold all locks to commit
(page-level 2PL, closed nesting, and the optimistic certifier, which
validates with the closed analysis) guarantee exactly that, so the fuzzer
judges them with the strict closure.  Multilevel and open nesting
deliberately give it up: a level-consistent (resp. compensation-covered)
subtransaction commits early and releases its lower-level locks, so
conflicts against the released footprint order *subtransactions*, not
top-level transactions — the classical level-by-level serializability
argument, under which inverted cross-object suborders between the same two
transactions are harmless as long as every level serializes.  The strict
closure still lifts those suborders to the roots and reports a cycle, so
for the two early-release protocols the judge applies the paper's literal
Definition 13/16 reading (``propagate_cross_object=False``).  The known
history that *needs* the closure (DESIGN.md §5's T2/T4 read anomaly) is
not admissible by either protocol: both keep every top-level send's own
lock until commit.

The **ablation** hook deliberately breaks commutativity entries in the
oracle's registry (not the scheduler's): the protocols keep granting
concurrency based on the generated matrices while the oracle judges with a
stricter one, so admitted interleavings become visible violations.  This is
the self-test that proves the fuzzer can actually detect a broken
commutativity specification — and feeds the shrinker a reproducible
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.commutativity import CommutativityRegistry, CommutativitySpec
from repro.core.serializability import analyze_system, conventional_baseline
from repro.oodb.trace import committed_history

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.executor import ExecutionResult

#: protocols whose locks are all held to commit; judged with the strict
#: cross-object closure.  Early-release protocols (multilevel, open nesting)
#: are judged with the literal Definition 13/16 reading — see module docs.
COMMIT_DURATION_PROTOCOLS = frozenset(
    {"page-2pl", "closed-nested", "optimistic-oo"}
)


def strictness_for(protocol: str) -> bool:
    """Whether the cross-object closure applies to ``protocol``'s histories."""
    return protocol in COMMIT_DURATION_PROTOCOLS


class BrokenSpec(CommutativitySpec):
    """Wraps a specification, forcing chosen commuting entries to conflict."""

    def __init__(self, inner: CommutativitySpec, pair: tuple[str, str] | None):
        self.inner = inner
        #: unordered method pair to break; None breaks every entry
        self.pair = frozenset(pair) if pair is not None else None

    def commutes(self, first, second) -> bool:
        if self.pair is None or {first.method, second.method} == self.pair:
            return False
        return self.inner.commutes(first, second)


@dataclass
class Ablation:
    """Which commutativity entry the oracle deliberately breaks."""

    object_name: str
    pair: tuple[str, str] | None = None

    def apply(self, registry: CommutativityRegistry) -> CommutativityRegistry:
        """A *copy* of ``registry`` with the chosen entry broken.

        The input is never mutated: the database hands out its (cached)
        live registry, and an oracle that poisoned it in place would leak
        the broken entry into the scheduler's own commutativity decisions —
        and into every later cell sharing the database factory.
        """
        broken = registry.copy()
        inner = broken.for_object(self.object_name)
        broken.register(self.object_name, BrokenSpec(inner, self.pair))
        return broken

    def to_dict(self) -> dict:
        return {
            "object": self.object_name,
            "pair": list(self.pair) if self.pair else None,
        }

    @staticmethod
    def from_dict(data: dict | None) -> "Ablation | None":
        if data is None:
            return None
        pair = tuple(data["pair"]) if data.get("pair") else None
        return Ablation(object_name=data["object"], pair=pair)


@dataclass
class OracleReport:
    """Verdict of one committed history under both criteria."""

    oo_serializable: bool
    conventional_serializable: bool
    oo_constraints: int
    conventional_constraints: int
    committed: int
    description: str
    #: workers that exhausted their restart budget without committing —
    #: liveness signal, distinct from a correctness violation
    gave_up: int = 0

    @property
    def oo_only(self) -> bool:
        """Admitted by oo-serializability, rejected conventionally — the
        schedules only the paper's criterion accepts."""
        return self.oo_serializable and not self.conventional_serializable

    @property
    def violation(self) -> bool:
        return not self.oo_serializable


def judge_committed(
    db,
    labels,
    ablation: Ablation | None = None,
    *,
    strict_cross_object: bool = True,
) -> tuple[OracleReport, set, set]:
    """The one judgement of a committed history; every judge calls it.

    Projects ``db``'s trace onto ``labels``, runs Definitions 10-16
    (:func:`~repro.core.serializability.analyze_system`) and the
    conventional page-conflict baseline once, reading both its verdict and
    its constraints.  Returns the report (``gave_up`` is the caller's to
    set) and the two label-pair constraint sets — Definition 15 top-order
    and page conflict — that the sharded composition unions across shards.
    """
    projection, registry = committed_history(db, labels, ablation)
    verdict, _schedules = analyze_system(
        projection, registry, propagate_cross_object=strict_cross_object
    )
    conventional = conventional_baseline(projection)
    oo_edges = verdict.top_order_constraints
    conv_edges = conventional.constraints
    report = OracleReport(
        oo_serializable=verdict.oo_serializable,
        conventional_serializable=conventional.serializable,
        oo_constraints=len(oo_edges),
        conventional_constraints=len(conv_edges),
        committed=len(labels),
        description=verdict.describe(),
    )
    return report, oo_edges, conv_edges


def check_history(
    result: "ExecutionResult",
    ablation: Ablation | None = None,
    *,
    strict_cross_object: bool = True,
) -> OracleReport:
    """Judge one run's committed history against both criteria."""
    report, _, _ = judge_committed(
        result.db,
        result.committed_labels,
        ablation,
        strict_cross_object=strict_cross_object,
    )
    return replace(report, gave_up=len(result.gave_up))
