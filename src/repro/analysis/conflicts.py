"""Conflict statistics: the quantitative form of the paper's claim.

Given an *executed* trace (a transaction system plus its commutativity
registry), compare what the two correctness criteria demand:

- the **conventional** criterion
  (:func:`~repro.core.serializability.conventional_baseline`) counts every
  pair of real primitive actions on one object that is not read/read as a
  conflict, and each cross-transaction one as an ordering constraint
  between the top-level transactions;
- **oo-serializability** runs the Definition 10/11 inheritance and counts
  only the constraints that survive to the top level (dependencies that
  stop at a commuting level are dropped).

``ConflictStatistics.constraint_reduction`` is the paper's "lower rate of
conflicting accesses" in one number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.commutativity import CommutativityRegistry
from repro.core.serializability import analyze_system, conventional_baseline
from repro.core.transactions import TransactionSystem
from repro.oodb.trace import committed_projection


@dataclass
class ConflictStatistics:
    """Side-by-side conflict accounting for one executed schedule."""

    conventional_pairs: int  # conflicting primitive pairs (page level)
    conventional_top_constraints: int
    oo_conflicting_pairs: int  # semantically conflicting pairs at any object
    oo_top_constraints: int
    conventional_serializable: bool
    oo_serializable: bool

    @property
    def constraint_reduction(self) -> float:
        """Fraction of top-level ordering constraints that oo-serializability
        discards relative to the conventional criterion (0..1)."""
        if self.conventional_top_constraints == 0:
            return 0.0
        return 1.0 - (
            self.oo_top_constraints / self.conventional_top_constraints
        )

    def row(self) -> list:
        return [
            self.conventional_pairs,
            self.conventional_top_constraints,
            self.oo_conflicting_pairs,
            self.oo_top_constraints,
            f"{100 * self.constraint_reduction:.0f}%",
        ]

    @staticmethod
    def headers() -> list[str]:
        return [
            "page-conflicts",
            "conv-constraints",
            "oo-conflicts",
            "oo-constraints",
            "reduction",
        ]


def conflict_statistics(
    system: TransactionSystem,
    registry: CommutativityRegistry,
    *,
    committed_only: set[str] | None = None,
) -> ConflictStatistics:
    """Compute the side-by-side statistics for one executed trace.

    ``committed_only`` restricts the conventional/oo comparison to the given
    top-level transaction labels (aborted attempts are excluded by passing
    an :class:`ExecutionResult`'s ``committed_labels``).  Both sides then
    judge the :func:`~repro.oodb.trace.committed_projection` — counts and
    verdicts alike read only the given transactions, as every other judge
    of a committed history does.
    """
    if committed_only is not None:
        system = committed_projection(system, committed_only)
    verdict, schedules = analyze_system(system, registry)
    conventional = conventional_baseline(system)
    return ConflictStatistics(
        conventional_pairs=conventional.pairs,
        conventional_top_constraints=len(conventional.constraints),
        oo_conflicting_pairs=sum(
            len(sched.txn_dep.edges) for sched in schedules.values()
        ),
        oo_top_constraints=len(verdict.top_order_constraints),
        conventional_serializable=conventional.serializable,
        oo_serializable=verdict.oo_serializable,
    )
