"""Trace utilities: from executed runs to analyzable transaction systems.

An :class:`~repro.oodb.database.ObjectDatabase` records *every* transaction
attempt, including deadlock victims that were rolled back.  Serializability
is a property of the committed projection of a history, so the analysis of
a run with aborts must be restricted to the committed top-level
transactions: :func:`committed_projection` builds a transaction system
containing exactly those call trees (shared, not copied — analysis is
read-mostly, and the Definition 5 extension of the projection touches only
committed trees).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.transactions import TransactionSystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.commutativity import CommutativityRegistry
    from repro.oodb.database import ObjectDatabase
    from repro.runtime.executor import ExecutionResult


def committed_projection(
    system: TransactionSystem, labels: Iterable[str]
) -> TransactionSystem:
    """A transaction system holding only the given top-level transactions.

    The projection *shares* the underlying call trees with ``system`` (it
    does not deep-copy actions), so analyses of the projection see the same
    seq stamps.  Extending the projection (Definition 5) mutates only the
    shared committed trees.
    """
    wanted = set(labels)
    projection = TransactionSystem()
    projection._seq_counter = system._seq_counter  # share the clock
    for txn in system.tops:
        if txn.label in wanted:
            projection.adopt(txn)
    for oid in system.objects:
        projection.declare_object(oid)
    return projection


def committed_history(
    db: "ObjectDatabase", labels: Iterable[str], ablation=None
) -> tuple[TransactionSystem, "CommutativityRegistry"]:
    """What every judge analyses: ``(projection, registry)``.

    The committed projection of ``db``'s trace onto ``labels``, paired with
    the database's own commutativity registry — weakened by ``ablation``
    (a :class:`repro.core.judge.Ablation`, applied to a copy) when the
    judge is self-testing.
    """
    registry = db.commutativity_registry()
    if ablation is not None:
        registry = ablation.apply(registry)
    return committed_projection(db.system, labels), registry


def analyze_committed(result: "ExecutionResult", **kwargs):
    """Run the oo-serializability analysis on a run's committed projection.

    Convenience wrapper used by property tests and benches: takes the
    :class:`ExecutionResult` of an interleaved run and analyzes its
    :func:`committed_history`.  Returns ``(SystemVerdict, schedules)``.
    """
    from repro.core.serializability import analyze_system

    return analyze_system(
        *committed_history(result.db, result.committed_labels), **kwargs
    )
