"""The transaction service: concurrent client sessions, one shared database.

:class:`TransactionService` is the in-process core behind both the socket
server (:mod:`repro.service.server`) and the embedded clients the tests and
campaigns use.  Many threads submit method-call programs concurrently; the
service admits or rejects each one (:mod:`repro.service.admission`), queues
admitted requests into a bounded engine queue, and a single **engine
thread** drains them in batches onto one persistent
:class:`~repro.shard.service.ShardGroup` — the engine at every shard
count.  At one shard the group is one deterministic executor over one
:class:`~repro.oodb.database.ObjectDatabase`, and ``db`` / ``executor``
are that unit's own (the durable data dir and the audit's metrics live
there); at N shards ``db`` is the group itself, which duck-types the
catalog and metrics surface the front half reads.  At every shard count
each settled batch is audited online by the group
(:meth:`~repro.shard.service.ShardGroup.audit_batch`).

Why batches on deterministic executors rather than a thread per client
transaction: the paper's schedulers assume the simulator's one-runnable-
worker discipline, and the oracle needs the executed history.  Batching
keeps both — concurrency *within* a batch is real (the executor interleaves
the batch's transactions under the chosen protocol), while the service adds
arrival concurrency, admission control and deadlines around it.  The group
keeps every commit, so ``certify(exact=True)`` judges the whole run with
its composed oracle — at one shard exactly
:func:`repro.fuzz.oracle.check_history`, like any fuzz cell.

Deadlines ride the executor's logical clock: a request admitted with a
``deadline_ticks`` budget gets ``deadline_tick = executor.now + budget``
when its batch starts, and the executor maps expiry onto the existing
``gave_up`` liveness signal (never a silent hang, never a lost response).

The ledger discipline (see :class:`~repro.oodb.session.DatabaseSession`):
every admitted request is ``admit()``-ed before it is queued and
``settle()``-d exactly once with its terminal status.  A failed batch is
answered by one rule at every shard count: a transaction whose branches
all reached a verdict is answered from its outcome, the rest ``error``.
``audit()`` checks the service invariants — no admitted transaction left
unsettled, every transaction answered "committed" actually committed (no
lost admitted commits), and every commit the engine kept was answered
"committed" (no unreported commits).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass, field

from collections import deque

from repro.errors import DatabaseError
from repro.fuzz.generator import GeneratorProfile, generate, sharded_profile
from repro.oodb.session import DatabaseSession
from repro.oodb.wal import WriteAheadLog
from repro.oodb.store import FileBackedPageStore
from repro.runtime.executor import ExecutionResult, RetryPolicy
from repro.service.admission import (
    REJECT_QUEUE_FULL,
    REJECT_SHUTTING_DOWN,
    AdmissionController,
    Rejection,
    TenantQuota,
)
from repro.shard.service import ShardGroup

#: ops a client program may contain (the workload generator's alphabet)
OP_SEND = "send"
OP_WORK = "work"

#: executor tick budget per batch (the executor counts it from each start())
MAX_TICKS = 500_000
#: how long the engine sleeps on an empty queue before re-checking stop
IDLE_WAIT_S = 0.02


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that parameterizes one service instance."""

    #: concurrency-control protocol for the shared database
    protocol: str = "page-2pl"
    #: seed for the hosted workload's object graph AND the executor
    seed: int = 0
    #: default per-request deadline budget in logical ticks (None = none)
    deadline_ticks: int | None = 4000
    #: requests the engine pulls into one executor batch at most
    batch_max: int = 8
    #: global bound on the engine queue (admitted-but-unexecuted requests)
    queue_capacity: int = 64
    #: per-tenant default quota (overridable per tenant at registration)
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: restart backoff policy handed to the executor
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: certify each settled batch incrementally (the online audit); off,
    #: the history is only judged by an explicit :meth:`certify` call
    online_certify: bool = True
    #: root of the durable file-backed storage engine (None = in-memory)
    data_dir: str | None = None
    #: buffer-pool frames when ``data_dir`` is set
    frames: int = 256
    #: fuzzy-checkpoint interval in WAL records when ``data_dir`` is set
    checkpoint_every: int = 512
    #: shards of the engine's shard group (1 = one executor over one
    #: database, the single-core engine; see :mod:`repro.shard.service`)
    shards: int = 1

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "deadline_ticks": self.deadline_ticks,
            "batch_max": self.batch_max,
            "queue_capacity": self.queue_capacity,
            "default_quota": self.default_quota.to_dict(),
            "retry_policy": self.retry_policy.to_dict(),
            "online_certify": self.online_certify,
            "data_dir": self.data_dir,
            "frames": self.frames,
            "checkpoint_every": self.checkpoint_every,
            "shards": self.shards,
        }


class _Pending:
    """One submitted request's future response."""

    __slots__ = ("event", "response")

    def __init__(self):
        self.event = threading.Event()
        self.response: dict | None = None

    def resolve(self, response: dict) -> None:
        self.response = response
        self.event.set()

    def wait(self, timeout: float | None = None) -> dict:
        if not self.event.wait(timeout):
            return {"status": "pending"}
        return self.response or {"status": "error", "error": "no response"}


@dataclass
class _Request:
    tenant: str
    label: str
    ops: list
    deadline_ticks: int | None
    max_restarts: int
    pending: _Pending
    enqueued_at: float


class DeficitRoundRobin:
    """Weighted-fair request scheduling across tenants (deficit round-robin).

    The engine used to drain its queue FIFO, so one chatty tenant could
    fill every batch.  Here admitted requests are buffered per tenant and
    batches are assembled by cycling the tenants in sorted order with a
    persistent cursor: each visit adds the tenant's ``weight`` to its
    deficit and takes one buffered request per whole unit of deficit.
    Under contention a tenant therefore receives batch slots proportional
    to its quota weight; an idle visit resets the deficit so credit never
    accumulates while a tenant has nothing queued.  Everything is plain
    arithmetic over sorted tenants — byte-deterministic for a fixed
    arrival order, which the service campaigns rely on.

    Single-threaded by design: only the engine thread touches it.
    """

    def __init__(self, weight_for):
        #: tenant -> scheduling weight (non-positive values count as 1.0)
        self._weight_for = weight_for
        self._buffers: dict[str, deque] = {}
        self._deficits: dict[str, float] = {}
        self._order: list[str] = []
        self._cursor = 0
        #: buffered requests across all tenants (read by submitters for the
        #: global capacity bound; a stale read only shifts *when* the
        #: queue-full answer arrives, never whether work is lost)
        self.buffered = 0

    def offer(self, request: _Request) -> None:
        buffer = self._buffers.get(request.tenant)
        if buffer is None:
            buffer = self._buffers[request.tenant] = deque()
            self._deficits[request.tenant] = 0.0
            index = 0
            while index < len(self._order) and self._order[index] < request.tenant:
                index += 1
            self._order.insert(index, request.tenant)
            if index <= self._cursor and len(self._order) > 1:
                self._cursor += 1  # keep pointing at the same tenant
        buffer.append(request)
        self.buffered += 1

    def next_batch(self, limit: int) -> list[_Request]:
        batch: list[_Request] = []
        while self.buffered and len(batch) < limit:
            tenant = self._order[self._cursor % len(self._order)]
            buffer = self._buffers[tenant]
            if not buffer:
                self._deficits[tenant] = 0.0
                self._cursor = (self._cursor + 1) % len(self._order)
                continue
            weight = self._weight_for(tenant)
            self._deficits[tenant] += weight if weight > 0 else 1.0
            while (
                self._deficits[tenant] >= 1.0 and buffer and len(batch) < limit
            ):
                batch.append(buffer.popleft())
                self.buffered -= 1
                self._deficits[tenant] -= 1.0
            if not buffer:
                self._deficits[tenant] = 0.0
            self._cursor = (self._cursor + 1) % len(self._order)
        return batch


class InvalidRequest(ValueError):
    """A request that can never execute (unknown op/object/method)."""


class TransactionService:
    """The multi-tenant front half: admission, batching, settlement."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        quotas: dict[str, TenantQuota] | None = None,
        profile: GeneratorProfile | None = None,
        clock=time.monotonic,
    ):
        self.config = config or ServiceConfig()
        # The hosted object graph must actually spread over the shards: an
        # ungrouped spec can collapse into one call component, which would
        # pin every object to shard 0.
        spec = generate(
            self.config.seed, sharded_profile(profile, self.config.shards)
        )
        self.spec = spec
        storage: dict = {}
        if self.config.data_dir is not None:
            if self.config.shards > 1:
                raise DatabaseError(
                    "shards > 1 does not compose with --data-dir: the sharded "
                    "runtime keeps per-shard WAL segments only in cell mode "
                    "(python -m repro shard --data-dir)"
                )
            os.makedirs(self.config.data_dir, exist_ok=True)
            wal_path = os.path.join(self.config.data_dir, "wal.jsonl")
            if os.path.exists(wal_path):
                # Bootstrapping over prior state would append a second
                # genesis onto its log; make the operator decide first.
                raise DatabaseError(
                    f"data dir {self.config.data_dir} already holds a "
                    "WAL; run `repro recover --data-dir` and move it "
                    "aside, or point --data-dir at a fresh directory"
                )
            storage = {
                "wal": WriteAheadLog(path=wal_path),
                "store": FileBackedPageStore(
                    self.config.data_dir,
                    frames=self.config.frames,
                    default_capacity=spec.page_capacity,
                ),
                "checkpoint_every": self.config.checkpoint_every,
            }
        # The engine at every shard count; clients author the programs.
        self._group = ShardGroup(
            spec,
            self.config.protocol,
            self.config.shards,
            seed=self.config.seed,
            max_ticks=MAX_TICKS,
            retry_policy=self.config.retry_policy,
            storage_for=lambda shard: storage,
        )
        self.oids = sorted(self._group.shard_map.assignment)
        if self.config.shards == 1:
            # One shard is the single-core engine: the front half reads the
            # unit's own database and executor.
            self.db = self._group.dbs[0]
            self.executor = self._group.units[0].executor
        else:
            # The group duck-types the narrow database surface the front
            # half reads — catalog lookups and the metrics registry — so
            # admission, sessions and settlement run unchanged.
            self.db = self._group
            self.executor = None
        self.admission = AdmissionController(
            self.config.default_quota,
            clock=clock,
            metrics=self.db.metrics,
        )
        for tenant, quota in (quotas or {}).items():
            self.admission.register(tenant, quota)
        self._sessions: dict[str, DatabaseSession] = {}
        self._sessions_lock = threading.Lock()
        self._queue: queue.Queue[_Request] = queue.Queue()
        # Serializes admit→enqueue so stop() can fence out submitters that
        # passed admission but have not reached the queue yet.
        self._submit_gate = threading.Lock()
        self._outcomes: list = []
        self._outcome_by_label: dict[str, object] = {}
        #: running ``len(history_result().gave_up)`` — the audit reports it
        #: without copying the outcome list under the certifier's lock
        self._gave_up = 0
        self._outcome_lock = threading.Lock()
        self._stopping = False
        self._engine: threading.Thread | None = None
        #: requests buffered by the engine's fair scheduler (engine thread
        #: writes, submitters read for the global capacity bound)
        self._buffered = 0
        m = self.db.metrics
        self._batches = m.counter(
            "service_batches_total", "executor batches the engine ran"
        )
        self._batch_size = m.histogram(
            "service_batch_size",
            "requests per executor batch",
            bounds=(1, 2, 4, 8, 16, 32),
        )
        self._settled = m.counter(
            "service_settled_total",
            "admitted requests settled, by terminal status",
            labelnames=("tenant", "status"),
        )
        self._certify_lag = m.gauge(
            "service_certify_lag",
            "committed transactions settled but not yet certified",
        )
        self._certified = m.counter(
            "service_certified_total",
            "committed transactions certified by the online audit",
        )
        self._certifier_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TransactionService":
        self._engine = threading.Thread(
            target=self._engine_loop, name="service-engine", daemon=True
        )
        self._engine.start()
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful stop: refuse new work, drain everything admitted."""
        self.admission.drain()
        # Fence: once the gate is acquired, every submitter has either
        # enqueued its admitted request or will see the drained controller.
        with self._submit_gate:
            self._stopping = True
        if self._engine is not None:
            self._engine.join(timeout)
            if self._engine.is_alive():  # pragma: no cover - liveness guard
                raise RuntimeError("service engine failed to stop")
            self._engine = None
        # The engine drains the queue before exiting; anything still here
        # (abrupt paths only) is settled explicitly, never dropped.
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            self._cancel(request)  # pragma: no cover - defensive
        self._group.close()

    def _cancel(self, request: _Request) -> None:
        """Settle an admitted request that will never execute."""
        self.session(request.tenant).settle(request.label, "cancelled")
        self.admission.finished(request.tenant, executed=False)
        with self._outcome_lock:
            self._settled.labels(
                tenant=request.tenant, status="cancelled"
            ).inc()
        request.pending.resolve(
            {
                "status": "rejected",
                "reason": REJECT_SHUTTING_DOWN,
                "retry_after_ms": 0,
                "label": request.label,
            }
        )

    def __enter__(self) -> "TransactionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- catalog / sessions -------------------------------------------------

    def catalog(self) -> dict:
        """What clients may call: objects, their layer, their methods."""
        return {
            ospec.name: {
                "layer": ospec.layer,
                "methods": [plan.name for plan in ospec.methods],
            }
            for ospec in self.spec.objects
        }

    def session(self, tenant: str) -> DatabaseSession:
        with self._sessions_lock:
            sess = self._sessions.get(tenant)
            if sess is None:
                sess = DatabaseSession(self.db, tenant)
                self._sessions[tenant] = sess
            return sess

    # -- submission (called from any thread) --------------------------------

    def validate_ops(self, ops: list) -> None:
        """Reject malformed programs before they cost an admission slot."""
        if not isinstance(ops, list) or not ops:
            raise InvalidRequest("ops must be a non-empty list")
        for op in ops:
            if not isinstance(op, (list, tuple)) or not op:
                raise InvalidRequest(f"malformed op {op!r}")
            if op[0] == OP_SEND:
                if len(op) != 5:
                    raise InvalidRequest(f"send op wants 5 fields: {op!r}")
                _, oid, method, key, amount = op
                if not self.db.has_object(oid):
                    raise InvalidRequest(f"unknown object {oid!r}")
                if not hasattr(self.db.get_object(oid), str(method)):
                    raise InvalidRequest(f"unknown method {oid}.{method}")
                int(key), int(amount)
            elif op[0] == OP_WORK:
                if len(op) != 2:
                    raise InvalidRequest(f"work op wants 2 fields: {op!r}")
                int(op[1])
            else:
                raise InvalidRequest(f"unknown op kind {op[0]!r}")

    def submit_async(
        self,
        tenant: str,
        ops: list,
        *,
        label: str = "txn",
        deadline_ticks: int | None = None,
        max_restarts: int = 20,
    ) -> tuple[dict | None, _Pending | None]:
        """Admit-or-reject; on admission returns the pending response.

        Returns ``(rejection_response, None)`` or ``(None, pending)``.
        Rejections are always explicit: the dict carries ``status:
        "rejected"``, a reason, and a ``retry_after_ms`` hint.
        """
        try:
            self.validate_ops(ops)
        except InvalidRequest as exc:
            return {"status": "invalid", "error": str(exc)}, None
        with self._submit_gate:
            # Global queue bound first: per-tenant quotas cannot defend the
            # engine when many tenants are each within their own limits.
            # Requests the engine has pulled into its fair-scheduling
            # buffers still count — they are admitted-but-unexecuted.
            if (
                self._queue.qsize() + self._buffered
                >= self.config.queue_capacity
            ):
                rejection = self.admission._reject(
                    tenant, REJECT_QUEUE_FULL, self.admission.retry_after_ms
                )
                return self._rejection_response(rejection), None
            ticket = self.admission.admit(tenant)
            if isinstance(ticket, Rejection):
                return self._rejection_response(ticket), None
            sess = self.session(tenant)
            txn_label = sess.next_label(label)
            sess.admit(txn_label)
            pending = _Pending()
            budget = (
                deadline_ticks
                if deadline_ticks is not None
                else self.config.deadline_ticks
            )
            self._queue.put(
                _Request(
                    tenant=tenant,
                    label=txn_label,
                    ops=list(ops),
                    deadline_ticks=budget,
                    max_restarts=max_restarts,
                    pending=pending,
                    enqueued_at=time.monotonic(),
                )
            )
            return None, pending

    def submit(
        self,
        tenant: str,
        ops: list,
        *,
        label: str = "txn",
        deadline_ticks: int | None = None,
        max_restarts: int = 20,
        timeout: float | None = 120.0,
    ) -> dict:
        """Blocking submit: admit, execute, return the terminal response."""
        rejected, pending = self.submit_async(
            tenant,
            ops,
            label=label,
            deadline_ticks=deadline_ticks,
            max_restarts=max_restarts,
        )
        if rejected is not None:
            return rejected
        return pending.wait(timeout)

    @staticmethod
    def _rejection_response(rejection: Rejection) -> dict:
        return {
            "status": "rejected",
            "reason": rejection.reason,
            "retry_after_ms": rejection.retry_after_ms,
        }

    # -- the engine thread --------------------------------------------------

    def _weight_for(self, tenant: str) -> float:
        quota = self.admission.quota_for(tenant)
        if quota is None:
            quota = self.config.default_quota
        return quota.weight

    def _engine_loop(self) -> None:
        scheduler = DeficitRoundRobin(self._weight_for)
        while True:
            if scheduler.buffered == 0:
                try:
                    scheduler.offer(
                        self._queue.get(timeout=IDLE_WAIT_S)
                    )
                except queue.Empty:
                    if self._stopping:
                        return
                    continue
            # Sweep everything that has arrived into the fair buffers, then
            # let deficit round-robin pick the batch across tenants.
            while True:
                try:
                    scheduler.offer(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._buffered = scheduler.buffered
            batch = scheduler.next_batch(self.config.batch_max)
            self._buffered = scheduler.buffered
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: list[_Request]) -> None:
        for request in batch:
            self.admission.started(request.tenant)
        failure = None
        try:
            outcomes = self._group.run_batch(
                [
                    {
                        "label": request.label,
                        "ops": request.ops,
                        "max_restarts": request.max_restarts,
                        "deadline_ticks": request.deadline_ticks,
                    }
                    for request in batch
                ]
            )
        except BaseException as exc:
            # A worker error (validated requests make this rare) or a
            # failure of the schedule itself.  The group unwound the batch;
            # every transaction whose branches all reached a verdict of
            # their own is answered from its outcome — a kept commit is
            # answered "committed" — and the rest, rolled back, fail.
            failure = exc
            outcomes = self._group.outcomes
        else:
            self._batches.inc()
            self._batch_size.observe(len(batch))
        for request in batch:
            outcome = outcomes.get(request.label)
            if outcome is not None:
                self._settle(request, outcome)
            else:
                self._settle_error(request, failure)
        # The online audit, once every reply is settled: run_batch() has
        # returned or unwound, a quiescent point (ShardGroup.audit_batch).
        committed = sum(
            o.committed and o.final_ctx is not None for o in outcomes.values()
        )
        if self.config.online_certify and committed:
            self._certify_lag.set(committed)
            with self._certifier_lock:
                self._group.audit_batch()
                self._certified.inc(committed)
                self._certify_lag.set(0)

    def _settle(self, request: _Request, outcome) -> None:
        if outcome.committed:
            status, reason = "committed", None
        elif outcome.error is not None:
            status, reason = "error", repr(outcome.error)
        elif outcome.deadline_exceeded:
            status, reason = "gave_up", "deadline"
        elif outcome.hung:
            status, reason = "gave_up", "hung"
        else:
            status, reason = "gave_up", "restarts-exhausted"
        self.session(request.tenant).settle(request.label, status)
        self.admission.finished(request.tenant)
        with self._outcome_lock:
            self._outcomes.append(outcome)
            self._outcome_by_label[request.label] = outcome
            if outcome.gave_up:
                self._gave_up += 1
            self._settled.labels(tenant=request.tenant, status=status).inc()
        response = {
            "status": status,
            "label": request.label,
            "attempts": outcome.attempts,
        }
        if reason is not None:
            response["reason"] = reason
        if status == "committed" and outcome.final_ctx is not None:
            response["txn"] = outcome.final_ctx.txn_id
        request.pending.resolve(response)

    def _settle_error(self, request: _Request, exc: BaseException) -> None:
        self.session(request.tenant).settle(request.label, "error")
        self.admission.finished(request.tenant)
        with self._outcome_lock:
            self._settled.labels(tenant=request.tenant, status="error").inc()
        request.pending.resolve(
            {"status": "error", "label": request.label, "error": repr(exc)}
        )

    # -- audit & certification ---------------------------------------------

    def history_result(self) -> ExecutionResult:
        """The whole service run as one oracle-checkable result."""
        with self._outcome_lock:
            outcomes = list(self._outcomes)
        return ExecutionResult(
            outcomes=outcomes,
            makespan=self._group.now,
            scheduler_stats={},
            db=self.db,
            seed=self.config.seed,
        )

    def audit(self) -> dict:
        """The service invariants, checked between the ledgers and the engine.

        - ``unsettled``: admitted transactions with no terminal status
          (must be empty after :meth:`stop`);
        - ``lost_commits``: labels the service answered "committed" for
          whose executed outcome does not show a commit — the one answer a
          transaction service must never get wrong;
        - ``unreported_commits``: labels the engine committed that the
          ledgers do not show as committed — a kept commit answered as
          anything else (exact once the service stopped: a running batch
          commits before it is answered).
        """
        unsettled: list[str] = []
        lost: list[str] = []
        reported: set[str] = set()
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        with self._outcome_lock:
            by_label = dict(self._outcome_by_label)
        for sess in sessions:
            unsettled.extend(sorted(sess.unsettled))
            committed = sess.committed_labels
            reported |= committed
            for label in sorted(committed):
                outcome = by_label.get(label)
                if (
                    outcome is None
                    or not outcome.committed
                    or outcome.final_ctx is None
                ):
                    lost.append(label)
        unreported = sorted(self._group.committed() - reported)
        return {
            "unsettled": unsettled,
            "lost_commits": lost,
            "unreported_commits": unreported,
            "ok": not unsettled and not lost and not unreported,
        }

    def certify(self, ablation=None, *, exact: bool = False):
        """Judge the service's committed history with the paper's oracle.

        With the online audit on (the default) the verdict is the audit's,
        in :class:`~repro.fuzz.oracle.OracleReport` shape, with no replay.
        A violation, ``exact=True``, an ``ablation`` or no online audit is
        judged by the group's exact oracle, witnesses included
        (:meth:`~repro.shard.service.ShardGroup.certify`).
        """
        if ablation is None and not exact:
            report = self.certification()
            if report is not None and not report.violation:
                return report.as_oracle_report()
        return self._group.certify(ablation, gave_up=self._gave_up)

    def certification(self):
        """The raw online-audit state (fast/escalated counters), or None."""
        if not self.config.online_certify:
            return None
        with self._certifier_lock:
            return self._group.certification(gave_up=self._gave_up)

    def stats(self) -> dict:
        """Per-tenant stats: admission state + terminal-status tallies."""
        admission = self.admission.snapshot()
        with self._sessions_lock:
            sessions = {t: s.counts() for t, s in self._sessions.items()}
        out: dict[str, dict] = {}
        for tenant in sorted(set(admission) | set(sessions)):
            out[tenant] = {
                "admission": admission.get(tenant, {}),
                "outcomes": sessions.get(tenant, {}),
            }
        return out
