"""A hybrid optimistic certifier: read validation, write locking.

The paper's Section 6 leaves protocol design open ("the definition of
object-oriented serializability is the basis for the development of
concurrency control protocols").  Besides the pessimistic open-nested
protocol, the natural second family is *certification*.  A word on
soundness: with in-place page writes, pure commit-time validation would
allow dirty writes — an aborting transaction's compensation would clobber
updates committed in between.  The classical cures are deferred private
writes (BOCC) or, simpler and standard in modern systems, the hybrid
implemented here:

- **updates** acquire the same semantic locks as the open-nested protocol
  (owned by their caller, hierarchically retained to commit), so
  conflicting updates serialize and compensation stays sound;
- **reads** acquire no semantic locks at all — they are validated at
  commit: the committed history plus this transaction must be
  oo-serializable (Definitions 10-16 as the validator), otherwise the
  transaction aborts and restarts.

Pages keep the usual short read/write locks for burst atomicity.

The validator is the one incremental judge,
:class:`~repro.core.certify.OnlineCertifier`, built once per scheduler:
each candidate is fed to it (fast path first, the exact engine once the
epoch escalates), so a validation costs the candidate's own tree, not the
history.  A failed candidate is retracted at once, and a validated one
that aborts anyway (a fault, a cross-shard abort) is retracted by identity
in :meth:`abort`; the judge then holds the epoch's committed trees plus
the validated candidates still in flight.  The executor's drain is the
quiescent point (:meth:`seal`, DESIGN §6.15): the epoch ends there, so a
service run holds at most one batch of trees and a fuzz cell stays one
epoch.

Trade-off measured in bench C6: readers never block writers and vice
versa, at the price of commit-time aborts when a read turns out to have
observed an inconsistent snapshot.
"""

from __future__ import annotations

from repro.core.actions import ActionNode, Invocation
from repro.core.certify import OnlineCertifier, certified_base
from repro.errors import TransactionAborted, UnknownMethodError
from repro.locking.lock_table import LockingScheduler
from repro.oodb.context import TransactionContext


class OptimisticCertifier(LockingScheduler):
    """Write-locking, read-validating optimistic concurrency control."""

    name = "optimistic-oo"
    open_nested = True  # log policy: compensations, not before-images

    def __init__(self) -> None:
        super().__init__()
        self._committed: list[str] = []
        self._n_validations = self._stat_counters["validations"]
        self._n_validation_failures = self._stat_counters[
            "validation_failures"
        ]
        self._n_cache_resets = self._stat(
            "certification_cache_resets",
            "validation candidates retracted from the judge: failed, or "
            "validated and aborted",
        )
        #: the judge, built at the first validation and kept for life
        self._judge: OnlineCertifier | None = None

    # -- locking knobs ---------------------------------------------------------

    def _should_lock(self, node: ActionNode, invocation: Invocation) -> bool:
        if self._is_page(invocation.obj):
            return True
        if self.db is None or not self.db.has_object(invocation.obj):
            return True  # unknown target: be safe
        obj = self.db.get_object(invocation.obj)
        try:
            spec = type(obj).method_spec(invocation.method)
        except UnknownMethodError:
            return True  # e.g. "create": lock (trivially uncontended)
        return spec.update  # reads run lock-free and validate at commit

    def _owner_for(self, ctx: TransactionContext, node: ActionNode) -> ActionNode:
        return node.parent if node.parent is not None else ctx.txn.root

    # -- validation ----------------------------------------------------------

    def prepare(self, ctx) -> None:
        """Validate against the committed history; abort on conflict.

        Runs in ``prepare`` rather than ``commit`` so the database can
        order things as write-ahead logging demands: validate, *then*
        force the commit record, then release locks in :meth:`commit`.
        """
        if self.db is not None and not ctx.runtime_data.get("compensating"):
            self._n_validations.value += 1
            ok = self._validate(ctx)
            bus = self.bus
            if bus.active:
                from repro.obs.events import AnalysisVerdict

                bus.emit(
                    AnalysisVerdict(
                        source="certify",
                        ok=ok,
                        txn=ctx.txn_id,
                        tick=bus.now(),
                    )
                )
            if not ok:
                self._n_validation_failures.value += 1
                # Keep every lock: the caller aborts the transaction, and
                # the compensations must run under the still-held write
                # locks (releasing first would open a dirty-restore window
                # for concurrent writers).  ``Scheduler.abort`` releases.
                raise TransactionAborted(ctx.txn_id, "validation failed")

    def _validate(self, ctx) -> bool:
        """Feed the candidate to the judge; retract it if it fails.

        The judge mutates the shared call trees exactly as a from-scratch
        analysis would (re-stamping, Definition 5 extension), so its
        decisions match one of committed ∪ {candidate}.
        """
        judge = self._judge
        if judge is None:
            judge = self._judge = OnlineCertifier(
                certified_base(self.db.system),
                self.db.commutativity_registry(),
            )
        if judge.observe_commit(ctx.txn):
            return True
        judge.retract(ctx.txn)
        self._n_cache_resets.value += 1
        return False

    def seal(self) -> None:
        """The executor drained: end the epoch (DESIGN §6.15)."""
        if self._judge is not None:
            self._judge.seal()

    def commit(self, ctx) -> None:
        if self.db is not None and not ctx.runtime_data.get("compensating"):
            self._committed.append(ctx.txn_id)
        super().commit(ctx)

    def abort(self, ctx) -> None:
        # A candidate that passed validation but aborts anyway (a fault
        # between prepare and commit, a cross-shard abort) leaves the judge.
        if self._judge is not None and self._judge.retract(ctx.txn):
            self._n_cache_resets.value += 1
        super().abort(ctx)
