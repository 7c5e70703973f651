"""The scheduler interface between the database and the protocols.

The database calls the scheduler at four points:

- ``begin(ctx)`` when a transaction starts;
- ``request(ctx, node, invocation)`` before every action (method sends and
  primitive page accesses alike).  The scheduler may grant immediately,
  block the calling transaction (via the simulation environment's wait
  primitive) until the conflict clears, or raise
  :class:`~repro.errors.TransactionAborted` (e.g. as a deadlock victim);
- ``end_action(ctx, node, release)`` when an action's frame completes; with
  ``release=True`` the protocol may free the locks acquired for the
  action's subtree (open nesting), with ``release=False`` they are retained
  for the enclosing transaction;
- ``commit(ctx)`` / ``abort(ctx)`` when the top-level transaction ends.

Schedulers are *passive* with respect to scheduling: blocking is delegated
to the environment object bound with ``bind_environment`` (the interleaved
executor), so the same protocol code runs under any driver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.core.actions import ActionNode, Invocation
from repro.obs.events import EventBus
from repro.obs.metrics import STAT_KEYS, Counter, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.oodb.context import TransactionContext
    from repro.oodb.database import ObjectDatabase

_STAT_HELP = {
    "acquired": "semantic locks granted",
    "waits": "lock requests that found a conflict and blocked",
    "deadlocks": "transactions aborted as deadlock victims",
    "wounds": "transactions wounded by a compensating requester",
    "overrides": "rollback-vs-rollback lock overrides",
    "lock_index_hits": "lock-table bulk operations answered from an index",
    "commute_cache_hits": "memoized commutativity verdicts reused",
    "validations": "optimistic certifications attempted",
    "validation_failures": "optimistic certifications that failed",
}


class WaitEnvironment(Protocol):
    """What a scheduler needs from the runtime in order to block."""

    def wait_for(self, ctx: "TransactionContext", reason: str) -> None:
        """Block ``ctx`` until :meth:`wake_all` (re-check the condition after)."""

    def wake_all(self) -> None:
        """Wake every blocked transaction so it re-checks its condition."""


class _ImmediateEnvironment:
    """Fallback environment for single-threaded use: blocking would be a
    self-deadlock, so a wait raises instead."""

    def wait_for(self, ctx: "TransactionContext", reason: str) -> None:
        from repro.errors import TransactionAborted

        raise TransactionAborted(
            ctx.txn_id,
            f"would block ({reason}) but no executor is driving concurrency",
        )

    def wake_all(self) -> None:  # pragma: no cover - nothing to wake
        pass


class Scheduler:
    """Base class: a no-op scheduler with the attachment plumbing."""

    #: human-readable protocol name (used in bench tables)
    name = "none"
    #: whether subtransaction completion may release locks / discard undo
    open_nested = False
    #: page-lock mode policy: True makes every page access of an *update*
    #: method exclusive (how conventional systems avoid upgrade deadlocks —
    #: they have no semantic knowledge to do better); False trusts the
    #: per-method ``write_intent`` declarations
    conservative_page_intent = False

    def __init__(self) -> None:
        self.db: "ObjectDatabase | None" = None
        self.env: WaitEnvironment = _ImmediateEnvironment()
        #: the owning database's event bus is adopted in :meth:`attach`;
        #: until then a private (inert) bus keeps instrumentation sites valid
        self.bus = EventBus()
        #: every scheduler owns a registry; the uniform ``stats`` counters
        #: (:data:`repro.obs.metrics.STAT_KEYS`) are registered up front so
        #: the executor's read is guaranteed and uniformly keyed — the old
        #: ``getattr(scheduler, "stats", {})`` silent-empty fallback is gone
        self.metrics = MetricsRegistry()
        self._stat_counters: dict[str, Counter] = {}
        for key in STAT_KEYS:
            self._stat(key, _STAT_HELP.get(key, ""))

    def _stat(self, key: str, help: str = "") -> Counter:
        """Register a counter that also surfaces in the ``stats`` dict."""
        counter = self.metrics.counter(f"scheduler_{key}_total", help)
        self._stat_counters[key] = counter
        return counter

    @property
    def stats(self) -> dict:
        """The legacy stats view, derived from the registry counters."""
        return {key: c.value for key, c in self._stat_counters.items()}

    # -- plumbing -------------------------------------------------------------

    def attach(self, db: "ObjectDatabase") -> None:
        """Called once by the database that owns this scheduler."""
        self.db = db
        bus = getattr(db, "bus", None)
        if bus is not None:
            self.bus = bus

    def bind_environment(self, env: WaitEnvironment) -> None:
        """Called by the executor that drives concurrent transactions."""
        self.env = env

    # -- protocol hooks ----------------------------------------------------------

    def begin(self, ctx: "TransactionContext") -> None:
        """A transaction starts."""

    def request(
        self, ctx: "TransactionContext", node: ActionNode, invocation: Invocation
    ) -> None:
        """An action is about to execute; grant, block or abort."""

    def end_action(
        self, ctx: "TransactionContext", node: ActionNode, release: bool
    ) -> None:
        """The action's frame completed (``release`` per open-nesting rules)."""

    def prepare(self, ctx: "TransactionContext") -> None:
        """Last chance to refuse the commit (certification/validation).

        Called by the database immediately before the commit record is
        made durable; :meth:`commit` must then succeed unconditionally.
        Raising :class:`~repro.errors.TransactionAborted` here turns the
        commit into an abort *before* anything durable claims otherwise —
        required for write-ahead logging, where "committed" means "the
        commit record survived" and lock release must come after it.
        """

    def commit(self, ctx: "TransactionContext") -> None:
        """The top-level transaction commits; free everything."""

    def abort(self, ctx: "TransactionContext") -> None:
        """The top-level transaction aborted; free everything."""

    def release_all_for(self, ctx: "TransactionContext", node: ActionNode) -> None:
        """Release every lock held on behalf of this action node (used when
        a subtransaction aborts and is erased)."""

    def seal(self) -> None:
        """The executor drained its run: a quiescent point (DESIGN §6.15).

        Nothing is in flight and every later stamp exceeds every stamp
        drawn so far; a scheduler holding per-epoch state may drop it.
        """

    # -- introspection ---------------------------------------------------------

    def describe(self) -> str:
        return self.name


class NoConcurrencyControl(Scheduler):
    """Tracing-only mode: every request is granted, nothing is locked.

    Used to execute transactions one at a time (or under an externally
    chosen interleaving) purely to obtain call-tree traces for the
    Definition 10/11 analysis.
    """

    name = "none"

