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

Trade-off measured in bench C6: readers never block writers and vice
versa, at the price of commit-time aborts when a read turns out to have
observed an inconsistent snapshot.
"""

from __future__ import annotations

from repro.core.actions import ActionNode, Invocation
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
        #: how often a failed/aborted candidate discarded the cached
        #: incremental certification fixpoint (forcing a rebuild)
        self._n_cache_resets = self._stat(
            "certification_cache_resets",
            "incremental-certification caches discarded",
        )
        #: cached incremental analysis of the committed projection; each
        #: validation *extends* it with the candidate instead of re-running
        #: Definitions 10-16 from empty
        self._engine = None
        #: candidate appended to the cached engine but not yet committed
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
        """Extend the cached committed-prefix analysis with the candidate.

        The engine holds the Definition 10/11/15 fixpoint of everything
        committed so far, with every relation under an online cycle watcher;
        validating a commit costs only the candidate's own dependency
        deltas.  The engine mutates the same shared call trees the one-shot
        analysis would (re-stamping, Definition 5 extension), so decisions
        match a from-scratch analysis of committed ∪ {candidate} exactly.
        A failed candidate's edges cannot be retracted from the fixpoint, so
        failure discards the cache — the next validation rebuilds from the
        (valid) committed prefix.
        """
        from repro.core.dependency import IncrementalDependencyEngine
        from repro.oodb.trace import committed_projection

        registry = self.db.commutativity_registry()
        if self._engine is None:
            projection = committed_projection(
                self.db.system, set(self._committed)
            )
            self._engine = IncrementalDependencyEngine(
                projection, registry, track_cycles=True, metrics=self.metrics
            )
            self._engine.run()
        else:
            # Objects created since the cache was built carry their own
            # specifications; the db-side cache makes this refresh cheap.
            self._engine.commutativity = registry
        self._engine.append_transaction(ctx.txn)
        if self._engine.violated:
            self._engine = None
            self._pending_label = None
            self._n_cache_resets.value += 1
            return False
        self._pending_label = ctx.txn_id
        return True

    def commit(self, ctx) -> None:
        if self.db is not None and not ctx.runtime_data.get("compensating"):
            self._committed.append(ctx.txn_id)
            if self._pending_label == ctx.txn_id:
                self._pending_label = None  # candidate is now prefix
        super().commit(ctx)

    def abort(self, ctx) -> None:
        if self._pending_label is not None and self._pending_label == ctx.txn_id:
            # The candidate passed validation but aborts anyway (e.g. a
            # fault between prepare and commit): the cached fixpoint now
            # contains a transaction that will never commit.  Drop it.
            self._engine = None
            self._pending_label = None
            self._n_cache_resets.value += 1
        super().abort(ctx)
