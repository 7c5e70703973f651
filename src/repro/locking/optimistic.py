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
:class:`~repro.core.certify.OnlineCertifier`: each candidate is fed to the
judge of the current epoch (fast path first, the exact engine once it
escalates), so a validation costs the candidate's own tree, not the
history.  A failed candidate — or a validated one that aborts anyway —
drops the judge; the next validation rebuilds it from the epoch's
committed trees.  The executor's drain is the quiescent point
(:meth:`seal`, DESIGN §6.15): the epoch ends there, so a service run holds
at most one batch of trees and a fuzz cell stays one epoch.

Trade-off measured in bench C6: readers never block writers and vice
versa, at the price of commit-time aborts when a read turns out to have
observed an inconsistent snapshot.
"""

from __future__ import annotations

from repro.core.actions import ActionNode, Invocation
from repro.core.certify import OnlineCertifier, certified_base
from repro.core.identifiers import ObjectId, is_virtual
from repro.core.transactions import OOTransaction
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
        #: how often a failed/aborted candidate dropped the judge
        self._n_cache_resets = self._stat(
            "certification_cache_resets",
            "validation judges dropped by a failed or aborted candidate",
        )
        #: the current epoch's judge; ``_dropped`` once it holds edges of
        #: a candidate that will never commit (the next validation
        #: replaces it)
        self._judge: OnlineCertifier | None = None
        self._dropped = False
        #: trees committed since the last seal: what a new judge refeeds
        self._epoch: list[OOTransaction] = []
        #: Definition 5 virtual objects replaced judges declared this epoch
        self._virtual: set[ObjectId] = set()
        #: candidate fed to the judge but not yet committed
        self._pending_label: str | None = None

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
        """Feed the candidate to the epoch's judge.

        The judge mutates the shared call trees exactly as a from-scratch
        analysis would (re-stamping, Definition 5 extension), so its
        decisions match one of committed ∪ {candidate}.  A candidate's
        edges cannot be retracted, so a failed one drops the judge.
        """
        registry = self.db.commutativity_registry()
        judge = self._judge
        if (
            judge is None
            or self._dropped
            or judge.commutativity is not registry
        ):
            # First validation of the epoch, a dropped judge, or a created
            # object (its specification joins a new registry): refeed the
            # epoch's committed trees to a new judge.  The virtual objects
            # the old one declared stay declared — a from-scratch analysis
            # sees them on the trees they moved (the aborted candidates'
            # included), so the extension must not mint their names again.
            if judge is not None:
                self._virtual.update(
                    oid for oid in judge.system.objects if is_virtual(oid)
                )
            system = certified_base(self.db.system)
            for oid in self._virtual:
                system.declare_object(oid)
            judge = self._judge = OnlineCertifier(system, registry)
            self._dropped = False
            for txn in self._epoch:
                judge.observe_commit(txn)
        if judge.observe_commit(ctx.txn):
            self._pending_label = ctx.txn_id
            return True
        self._dropped = True
        self._pending_label = None
        self._n_cache_resets.value += 1
        return False

    def seal(self) -> None:
        """The executor drained: end the epoch (DESIGN §6.15)."""
        if self._dropped:
            self._judge = None
        elif self._judge is not None:
            self._judge.seal()
        self._dropped = False
        self._epoch.clear()
        self._virtual.clear()

    def commit(self, ctx) -> None:
        if self.db is not None and not ctx.runtime_data.get("compensating"):
            self._committed.append(ctx.txn_id)
            self._epoch.append(ctx.txn)
            if self._pending_label == ctx.txn_id:
                self._pending_label = None  # candidate is now prefix
        super().commit(ctx)

    def abort(self, ctx) -> None:
        if self._pending_label is not None and self._pending_label == ctx.txn_id:
            # The candidate passed validation but aborts anyway (e.g. a
            # fault between prepare and commit): the judge now holds a
            # transaction that will never commit.  Drop it.
            self._dropped = True
            self._pending_label = None
            self._n_cache_resets.value += 1
        super().abort(ctx)
