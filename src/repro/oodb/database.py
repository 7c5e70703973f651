"""The object database: OIDs, message dispatch, tracing, recovery.

:class:`ObjectDatabase` ties the substrate together.  Every message send

1. appends an action node to the sending transaction's call tree (so a
   finished run *is* a :class:`~repro.core.transactions.TransactionSystem`
   ready for the Definition 10/11 analysis),
2. asks the concurrency-control scheduler for permission (which may block
   the transaction or abort it),
3. executes the method inside a fresh frame with its own undo journal, and
4. on completion applies the open-nesting commit rule: a subtransaction
   with a registered compensation releases its low-level locks and leaves
   only the compensation behind; otherwise its journal is retained by the
   caller.

Primitive page accesses follow the same path with implicit ``read`` /
``write`` actions, giving the Axiom 1 bootstrap level for free.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, TYPE_CHECKING

from repro.core.actions import ActionNode, Invocation
from repro.core.commutativity import CommutativityRegistry, ReadWriteCommutativity
from repro.core.transactions import TransactionSystem
from repro.errors import (
    DatabaseError,
    EncapsulationError,
    SimulatedCrash,
    TransactionAborted,
    UnknownObjectError,
)
from repro.oodb.context import Frame, TransactionContext, TxnStatus
from repro.obs.events import (
    AnalysisVerdict,
    CompensationRegistered,
    CompensationReplayed,
    EventBus,
    MethodDispatch,
    MethodReturn,
    PageAccess,
    TxnAbort,
    TxnBegin,
    TxnCommit,
)
from repro.oodb.log import (
    DELETED,
    CompensationRecord,
    FrameLog,
    PageAllocationRecord,
    UndoRecord,
)
from repro.oodb.object_model import DatabaseObject, ensure_database_object_type
from repro.oodb.pages import DEFAULT_PAGE_CAPACITY, Page, PageStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.locking.interfaces import Scheduler


class ObjectDatabase:
    """An object-oriented database instance.

    Parameters
    ----------
    scheduler:
        The concurrency-control protocol; defaults to
        :class:`~repro.locking.interfaces.NoConcurrencyControl` (tracing
        only).
    page_capacity:
        Default slots per page — the "keys per page" experiment knob.
    wal:
        Optional :class:`~repro.oodb.wal.WriteAheadLog`; when attached,
        every physical page effect and journal transition is logged so the
        database survives (simulated) crashes via
        :func:`repro.oodb.wal.recover`.
    faults:
        Optional :class:`~repro.faults.FaultPlan` consulted at named crash
        sites and dispatch points.
    bus:
        Optional :class:`~repro.obs.events.EventBus`; one is created when
        omitted.  The scheduler and the WAL adopt it, so subscribing a
        tracer to ``db.bus`` observes every layer of this database.
    store:
        Optional storage backend implementing the
        :class:`~repro.oodb.pages.PageStore` interface (e.g.
        :class:`~repro.oodb.store.FileBackedPageStore`); the in-memory
        store is built when omitted.
    checkpoint_every:
        Take a fuzzy checkpoint whenever this many WAL records accumulated
        since the last one (checked at commit).  Only meaningful with a
        durable store and a WAL.
    """

    def __init__(
        self,
        scheduler: "Scheduler | None" = None,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        wal=None,
        faults=None,
        bus: EventBus | None = None,
        store=None,
        checkpoint_every: int | None = None,
    ):
        from repro.locking.interfaces import NoConcurrencyControl

        self.store = store if store is not None else PageStore(page_capacity)
        self.system = TransactionSystem()
        self.bus = bus if bus is not None else EventBus()
        self.scheduler: "Scheduler" = scheduler or NoConcurrencyControl()
        self.scheduler.attach(self)
        #: the run's metrics registry — owned by the scheduler so its
        #: uniform stats counters and the substrate's instruments coexist
        self.metrics = self.scheduler.metrics
        #: optional simulation environment; when set, every action request
        #: is an interleaving checkpoint
        self.env = None
        self.wal = wal
        if wal is not None:
            wal.bind(self.bus, self.metrics)
        self.faults = faults
        self.checkpoint_every = checkpoint_every
        self._last_ckpt_lsn = -1
        if self.store.durable:
            self.store.connect(
                force_log=wal.force_up_to if wal is not None else None,
                fault_hit=self._fault_hit,
                metrics=self.metrics,
            )
            if wal is not None:
                wal.enable_analysis()
        self._objects: dict[str, DatabaseObject] = {}
        self._oid_counters: dict[str, int] = {}
        self._registry_cache: CommutativityRegistry | None = None
        self._local = threading.local()

    def _fault_hit(self, site: str) -> None:
        """Consult the fault plane at a named crash site.

        When the plan fires, the WAL's volatile tail is dropped *before*
        the exception starts to propagate — a real crash gives nothing
        downstream the chance to sync it on the way out.  The store's
        volatile frames go with it.
        """
        if self.faults is None:
            return
        try:
            self.faults.hit(site)
        except SimulatedCrash:
            if self.wal is not None:
                self.wal.crash()
            self.store.crash()
            raise

    # ------------------------------------------------------------------
    # object management
    # ------------------------------------------------------------------

    def create(
        self,
        cls: type[DatabaseObject],
        *args: Any,
        oid: str | None = None,
        page_capacity: int | None = None,
    ) -> str:
        """Create an object at bootstrap time (outside any transaction)."""
        if self._current_ctx() is not None:
            raise DatabaseError(
                "create() is for bootstrap; use DatabaseObject.db_create "
                "inside transactions"
            )
        obj = self._instantiate(cls, oid, page_capacity)
        self._run_setup(obj, args)
        return obj.oid

    def create_nested(
        self,
        cls: type[DatabaseObject],
        args: tuple,
        *,
        oid: str | None = None,
        page_capacity: int | None = None,
    ) -> str:
        """Create an object from inside a running method (traced, undoable)."""
        ctx = self._require_ctx()
        obj = self._instantiate(cls, oid, page_capacity)
        ctx.current_frame.log.record(
            PageAllocationRecord(obj.page_id, lsn=self._last_alloc_lsn)
        )
        self._dispatch_create(ctx, obj, args)
        return obj.oid

    def _instantiate(
        self,
        cls: type[DatabaseObject],
        oid: str | None,
        page_capacity: int | None,
    ) -> DatabaseObject:
        ensure_database_object_type(cls)
        if oid is None:
            count = self._oid_counters.get(cls.__name__, 0) + 1
            self._oid_counters[cls.__name__] = count
            oid = f"{cls.__name__}{count}"
        if oid in self._objects:
            raise DatabaseError(f"object id {oid!r} already exists")
        capacity = page_capacity or cls.page_capacity
        page = self.store.allocate(capacity=capacity)
        self._last_alloc_lsn = None
        if self.wal is not None:
            ctx = self._current_ctx()
            # j: inside a transaction the caller journals the matching
            # PageAllocationRecord (create_nested); bootstrap never undoes.
            lsn = self.wal.append(
                {
                    "t": "alloc",
                    "txn": ctx.txn_id if ctx is not None else None,
                    "page": page.page_id,
                    "capacity": page.capacity,
                    "j": ctx is not None
                    and not ctx.runtime_data.get("compensating"),
                }
            )
            self._last_alloc_lsn = lsn if lsn >= 0 else None
        self.store.note_write(page.page_id, self._last_alloc_lsn)
        obj = cls(self, oid, page.page_id)
        self._objects[oid] = obj
        self._registry_cache = None  # a new object invalidates the registry
        return obj

    def _run_setup(self, obj: DatabaseObject, args: tuple) -> None:
        """Run ``setup`` at bootstrap, inside a creation scope."""
        stack = self._creation_stack()
        stack.append(obj)
        try:
            obj.setup(*args)
        finally:
            stack.pop()

    def _dispatch_create(
        self, ctx: TransactionContext, obj: DatabaseObject, args: tuple
    ) -> None:
        """Run ``setup`` inside a transaction, as a traced ``create`` action."""
        parent_frame = ctx.current_frame
        node = parent_frame.node.call(obj.oid, "create", args)
        self._checkpoint()
        self.scheduler.request(ctx, node, Invocation(obj.oid, "create", args))
        node.seq = self.system._next_seq()
        bus = self.bus
        if bus.active:
            bus.emit(
                MethodDispatch(
                    txn=ctx.txn_id,
                    aid=node.aid,
                    obj=obj.oid,
                    method="create",
                    args=args,
                    seq=node.seq,
                    depth=ctx.depth,
                    tick=bus.now(),
                )
            )
        frame = Frame(node=node, receiver=obj, spec=None)
        ctx.push(frame)
        ctx.stats.actions += 1
        try:
            obj.setup(*args)
        except BaseException:
            ctx.pop()
            parent_frame.log.merge_child(frame.log)
            raise
        ctx.pop()
        # creation is never released early: undo must deallocate the page
        parent_frame.log.merge_child(frame.log)
        if bus.active:
            bus.emit(
                MethodReturn(
                    txn=ctx.txn_id,
                    aid=node.aid,
                    obj=obj.oid,
                    method="create",
                    tick=bus.now(),
                )
            )
        self.scheduler.end_action(ctx, node, release=False)

    def get_object(self, oid: str) -> DatabaseObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise UnknownObjectError(f"no object {oid!r}") from None

    def has_object(self, oid: str) -> bool:
        return oid in self._objects

    @property
    def object_ids(self) -> list[str]:
        return list(self._objects)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(
        self, label: str | None = None, *, log: bool = True
    ) -> TransactionContext:
        txn = self.system.transaction(label)
        ctx = TransactionContext(txn)
        self.scheduler.begin(ctx)
        bus = self.bus
        if bus.active:
            bus.emit(TxnBegin(txn=ctx.txn_id, tick=bus.now()))
        if log and self.wal is not None:
            # Sync: cheap (begins are rare) and it anchors durability of
            # everything before the transaction — bootstrap included.
            self.wal.append({"t": "begin", "txn": ctx.txn_id})
            self.wal.sync()
        return ctx

    def send(self, ctx: TransactionContext, oid: str, method: str, *args: Any) -> Any:
        """Send a top-level message on behalf of ``ctx``.

        Binds the context to the calling thread for the duration, so nested
        ``self.call`` sends find it.
        """
        previous = self._current_ctx()
        if previous is not None and previous is not ctx:
            raise DatabaseError(
                "another transaction context is already active on this thread"
            )
        self._local.ctx = ctx
        try:
            return self._dispatch(ctx, oid, method, args)
        finally:
            self._local.ctx = previous

    def nested_send(self, oid: str, method: str, args: tuple) -> Any:
        """A message sent from inside a method (``DatabaseObject.call``)."""
        return self._dispatch(self._require_ctx(), oid, method, args)

    def send_atomic(
        self,
        ctx: TransactionContext,
        oid: str,
        method: str,
        *args: Any,
        default: Any = None,
    ) -> Any:
        """Send a message as an abortable subtransaction.

        If the method (or anything it calls) raises
        :class:`~repro.errors.SubtransactionAbort`, only this
        subtransaction's effects are rolled back — its undo entries and
        compensations run in reverse, its locks are released — and
        ``default`` is returned; the enclosing transaction stays active.
        Any other outcome behaves exactly like :meth:`send`.
        """
        from repro.errors import SubtransactionAbort

        previous = self._current_ctx()
        if previous is not None and previous is not ctx:
            raise DatabaseError(
                "another transaction context is already active on this thread"
            )
        self._local.ctx = ctx
        parent_frame = ctx.current_frame
        children_before = len(parent_frame.node.children)
        journal_before = len(parent_frame.log.entries)
        wal_mark = self.wal.next_lsn if self.wal is not None else None
        try:
            return self._dispatch(ctx, oid, method, args)
        except SubtransactionAbort:
            self._rollback_subtransaction(
                ctx, parent_frame, children_before, journal_before, wal_mark
            )
            return default
        finally:
            self._local.ctx = previous

    def _rollback_subtransaction(
        self,
        ctx: TransactionContext,
        parent_frame: Frame,
        children_before: int,
        journal_before: int,
        wal_mark: int | None = None,
    ) -> None:
        """Undo one aborted subtransaction and erase it from the trace."""
        # 1. Reverse the journal entries the subtransaction contributed
        #    (its frames merged them into the parent while unwinding).
        entries = parent_frame.log.entries[journal_before:]
        del parent_frame.log.entries[journal_before:]
        ctx.runtime_data["compensating"] = True
        try:
            for entry in reversed(entries):
                self._fault_hit("rollback.step")
                self._consume_entry(ctx, entry)
        finally:
            ctx.runtime_data.pop("compensating", None)
        # The rollback's own bookkeeping is not undoable either.
        del parent_frame.log.entries[journal_before:]
        if self.wal is not None and wal_mark is not None:
            # The subtransaction's journal is history; durable before its
            # locks release, like a subcommit.
            self.wal.append(
                {"t": "jtrunc", "txn": ctx.txn_id, "from_lsn": wal_mark}
            )
            self.wal.sync()
        # 2. Release the subtree's locks and erase it from the call tree —
        #    an aborted subtransaction never happened.
        parent = parent_frame.node
        removed = parent.children[children_before:]
        if not removed:
            return
        del parent.children[children_before:]
        removed_aids = {node.aid for node in removed}
        parent.precedence = {
            (before, after)
            for before, after in parent.precedence
            if before not in removed_aids and after not in removed_aids
        }
        parent._closure_cache = None
        for node in removed:
            for action in node.iter_subtree():
                self.scheduler.release_all_for(ctx, action)

    def _dispatch(
        self, ctx: TransactionContext, oid: str, method: str, args: tuple
    ) -> Any:
        if not ctx.is_active:
            raise TransactionAborted(ctx.txn_id, "context is not active")
        if (
            self.faults is not None
            and ctx.depth == 0
            and not ctx.runtime_data.get("compensating")
            and self.faults.transient("dispatch")
        ):
            # Transient method failure: the victim rolls back and may
            # restart, exactly like a deadlock victim.
            raise TransactionAborted(ctx.txn_id, "injected transient fault")
        obj = self.get_object(oid)
        spec = type(obj).method_spec(method)
        parent_frame = ctx.current_frame
        node = parent_frame.node.call(oid, method, args)
        invocation = Invocation(oid, method, args, state=obj.state_snapshot())
        # The node keeps the snapshot so that the oo-serializability analysis
        # evaluates state-dependent commutativity on the same state the
        # scheduler saw (node.invocation() carries it).
        node.state = invocation.state
        self._checkpoint()
        self.scheduler.request(ctx, node, invocation)
        # Stamp the execution order only after the lock is granted: the
        # Axiom 1 order must reflect when the action actually ran, not when
        # it was first attempted (the request above may have blocked).
        node.seq = self.system._next_seq()
        bus = self.bus
        if bus.active:
            bus.emit(
                MethodDispatch(
                    txn=ctx.txn_id,
                    aid=node.aid,
                    obj=oid,
                    method=method,
                    args=args,
                    seq=node.seq,
                    depth=ctx.depth,
                    tick=bus.now(),
                )
            )
        frame = Frame(
            node=node,
            receiver=obj,
            spec=spec,
            wal_mark=self.wal.next_lsn if self.wal is not None else 0,
        )
        ctx.push(frame)
        ctx.stats.actions += 1
        try:
            result = spec.func(obj, *args)
        except BaseException:
            # Unwind: hand the child's journal to the parent so that a
            # top-level abort can still undo/compensate everything.
            ctx.pop()
            parent_frame.log.merge_child(frame.log)
            raise
        ctx.pop()
        self._complete_frame(ctx, parent_frame, frame, args, result)
        return result

    def _complete_frame(
        self,
        ctx: TransactionContext,
        parent_frame: Frame,
        frame: Frame,
        args: tuple,
        result: Any,
    ) -> None:
        """Apply the open-nesting commit rule to a finished action frame."""
        spec = frame.spec
        bus = self.bus
        if ctx.runtime_data.get("compensating"):
            # Actions of a rollback are never themselves undone or
            # compensated; their locks release with the frame so that
            # concurrent rollbacks do not pile up page locks.  The writes
            # of a compensating send may therefore interleave with other
            # transactions' writes on the same slots — delta-aware undo
            # (``UndoRecord.resolve``) keeps both live rollback and crash
            # recovery correct under such interleavings.
            parent_frame.log.merge_child(frame.log)
            if bus.active:
                bus.emit(
                    MethodReturn(
                        txn=ctx.txn_id,
                        aid=frame.node.aid,
                        obj=frame.node.obj,
                        method=frame.node.method,
                        released=True,
                        tick=bus.now(),
                    )
                )
            self.scheduler.end_action(ctx, frame.node, release=True)
            return
        compensation = spec.compensation_call(args, result) if spec else None
        has_undo = any(
            not isinstance(entry, CompensationRecord) for entry in frame.log.entries
        )
        if self.scheduler.open_nested and compensation is not None:
            # The subtransaction commits at this level: its low-level
            # effects become permanent (undo discarded) and the caller
            # records the semantic compensation instead.
            method_name, comp_args = compensation
            record = CompensationRecord(frame.node.obj, method_name, comp_args)
            if self.wal is not None:
                # Open-nesting durability rule: the compensation must be
                # durable *before* the low-level locks release, or a crash
                # leaves permanent effects nothing knows how to remove.
                self._fault_hit("subcommit.before")
                lsn = self.wal.append(
                    {
                        "t": "subcommit",
                        "txn": ctx.txn_id,
                        "oid": record.oid,
                        "method": record.method,
                        "args": list(record.args),
                        "from_lsn": frame.wal_mark,
                    }
                )
                self.wal.sync()
                self._fault_hit("subcommit.after")
                record = CompensationRecord(
                    record.oid, record.method, record.args, lsn=lsn
                )
            parent_frame.log.record(record)
            if bus.active:
                bus.emit(
                    CompensationRegistered(
                        txn=ctx.txn_id,
                        obj=record.oid,
                        method=record.method,
                        tick=bus.now(),
                    )
                )
            # The child journal (undo records and child compensations) is
            # superseded by this single semantic compensation and dropped.
            release = True
        elif self.scheduler.open_nested and not has_undo:
            # Read-only subtree (possibly carrying child compensations):
            # locks can go, compensations move up.
            parent_frame.log.merge_child(frame.log)
            release = True
        else:
            parent_frame.log.merge_child(frame.log)
            release = False
        if bus.active:
            bus.emit(
                MethodReturn(
                    txn=ctx.txn_id,
                    aid=frame.node.aid,
                    obj=frame.node.obj,
                    method=frame.node.method,
                    released=release,
                    tick=bus.now(),
                )
            )
        self.scheduler.end_action(ctx, frame.node, release=release)

    def commit(self, ctx: TransactionContext, *, prepared: bool = False) -> None:
        if not ctx.is_active:
            raise DatabaseError(f"{ctx.txn_id} is not active")
        if ctx.depth != 0:
            raise DatabaseError("commit inside a method execution")
        # Certification (optimistic validation) runs in prepare, *before*
        # the commit record: a transaction is a winner exactly when its
        # commit record is durable, so nothing may fail after the append —
        # and the record must be durable before any lock releases.
        # ``prepared=True`` skips the prepare: the sharded runtime's
        # two-phase commit already ran it when the branch voted, and a
        # validation failure after the coordinator's decision would break
        # cross-shard atomicity.
        if not prepared:
            self.scheduler.prepare(ctx)
        self._fault_hit("commit.before")
        if self.wal is not None:
            self.wal.append({"t": "commit", "txn": ctx.txn_id})
            self.wal.sync()
        self._fault_hit("commit.after")
        self.scheduler.commit(ctx)
        ctx.status = TxnStatus.COMMITTED
        if self.env is not None:
            ctx.stats.commit_tick = self.env.now
        bus = self.bus
        if bus.active:
            bus.emit(TxnCommit(txn=ctx.txn_id, tick=bus.now()))
        self._checkpoint_if_due()

    def _checkpoint_if_due(self) -> None:
        """Checkpoint every ``checkpoint_every`` records; asked after each
        commit and each ``abort-done``, so aborting runs checkpoint too."""
        if (
            self.checkpoint_every is not None
            and self.wal is not None
            and self.wal.next_lsn - self._last_ckpt_lsn >= self.checkpoint_every
        ):
            self.checkpoint()

    def checkpoint(self) -> int | None:
        """Take a fuzzy ARIES checkpoint; returns the ``ckpt-end`` LSN.

        Nothing stops: the checkpoint brackets whatever state is in flight.
        ``ckpt-end`` carries the serialized running analysis (the
        active-transaction table for the log prefix up to it) and the
        buffer pool's dirty-page table; recovery resumes analysis from the
        table and starts redo at the DPT's min(recLSN).  Dirty pages are
        flushed *after* the checkpoint completes — not required for
        correctness (the DPT is conservative), but it bounds the next
        crash's redo tail to roughly one checkpoint interval.
        """
        wal = self.wal
        if (
            wal is None
            or wal.crashed
            or not self.store.durable
            or wal.analysis is None
        ):
            return None
        t0 = time.perf_counter()
        begin = wal.append({"t": "ckpt-begin", "txn": None})
        self._fault_hit("checkpoint.mid")
        end = wal.append(
            {
                "t": "ckpt-end",
                "txn": None,
                "begin": begin,
                "att": wal.analysis.to_dict(),
                "dpt": self.store.dirty_table(),
            }
        )
        wal.sync()
        self._last_ckpt_lsn = end
        self.store.flush_dirty()
        self.metrics.counter(
            "checkpoints_total", "fuzzy checkpoints completed"
        ).value += 1
        self.metrics.histogram(
            "checkpoint_duration_ms",
            "wall-clock time of one fuzzy checkpoint",
            bounds=(1, 5, 20, 100, 500),
        ).observe((time.perf_counter() - t0) * 1000.0)
        return end

    def abort(self, ctx: TransactionContext, reason: str = "user abort") -> None:
        """Roll the transaction back: undo and compensate in reverse order."""
        if ctx.status is not TxnStatus.ACTIVE:
            return
        # Collapse any frames left open by an exception into the root log.
        while ctx.depth > 0:
            frame = ctx.pop()
            ctx.root_frame.log.merge_child(frame.log)
        if self.wal is not None:
            self.wal.append({"t": "abort", "txn": ctx.txn_id})
        ctx.runtime_data["compensating"] = True
        previous = self._current_ctx()
        self._local.ctx = ctx
        # Snapshot the journal: compensating sends append fresh entries to
        # the live list (their own page writes), which must not be undone
        # and must not disturb the reverse iteration.
        entries = list(ctx.root_frame.log.entries)
        ctx.root_frame.log.entries.clear()
        try:
            for entry in reversed(entries):
                self._fault_hit("rollback.step")
                self._consume_entry(ctx, entry)
            ctx.root_frame.log.entries.clear()
        finally:
            self._local.ctx = previous
            ctx.runtime_data.pop("compensating", None)
        self.scheduler.abort(ctx)
        ctx.status = TxnStatus.ABORTED
        if self.wal is not None:
            self.wal.append({"t": "abort-done", "txn": ctx.txn_id})
            self.wal.sync()
        bus = self.bus
        if bus.active:
            bus.emit(TxnAbort(txn=ctx.txn_id, reason=reason, tick=bus.now()))
        self._checkpoint_if_due()

    def _consume_entry(self, ctx: TransactionContext, entry) -> None:
        """Process one journal entry of a rollback, logging progress.

        A replayed compensation is marked consumed (``comp-done``) and
        synced before the next step: compensations are incremental, so a
        crash mid-rollback must never re-send one that already ran.
        """
        if isinstance(entry, CompensationRecord):
            bus = self.bus
            if bus.active:
                bus.emit(
                    CompensationReplayed(
                        txn=ctx.txn_id,
                        obj=entry.oid,
                        method=entry.method,
                        tick=bus.now(),
                    )
                )
            self._dispatch(ctx, entry.oid, entry.method, entry.args)
            if self.wal is not None and entry.lsn is not None:
                self.wal.append(
                    {"t": "comp-done", "txn": ctx.txn_id, "target": entry.lsn}
                )
                self.wal.sync()
        else:
            self.apply_physical(ctx.txn_id, entry)

    def apply_physical(self, txn: str, entry) -> None:
        """Apply an undo entry to the store, recording the physical effect.

        Rollback and recovery writes bypass the object layer (no tracing,
        no locks of their own), but the WAL must still witness them so that
        redo repeats history exactly.

        When the entry carries the LSN of its own durable journal record,
        the emitted record is a *compensation log record* in the ARIES
        sense: it is tagged ``consumes: lsn`` so crash analysis pops the
        journal entry (never replaying an already-applied undo step), and
        recovery's revert pass never reverts it (its before-image may be
        stale once later writers have touched the slot).
        """
        lsn = None
        if self.wal is not None:
            consumes = getattr(entry, "lsn", None)
            if isinstance(entry, PageAllocationRecord):
                if entry.page_id in self.store:
                    page = self.store.get(entry.page_id)
                    rec = {
                        "t": "dealloc",
                        "txn": txn,
                        "page": page.page_id,
                        "capacity": page.capacity,
                        # full snapshot, as [slot, value] pairs, so a
                        # partially-reverted rollback can resurrect it
                        "slots": [[k, v] for k, v in page.slots.items()],
                        "j": False,
                    }
                    if consumes is not None:
                        rec["consumes"] = consumes
                    lsn = self.wal.append(rec)
            elif entry.page_id in self.store:
                page = self.store.get(entry.page_id)
                # Log the *resolved* mutation: delta-undo may write a value
                # different from the journaled before-image (see
                # ``UndoRecord.resolve``), and redo must repeat exactly what
                # happened.
                action, value = entry.resolve(self.store)
                rec = {
                    "t": action,
                    "txn": txn,
                    "page": entry.page_id,
                    "slot": entry.slot,
                    "had": page.has(entry.slot),
                    "before": page.read(entry.slot),
                    "j": False,
                }
                if action == "set":
                    rec["value"] = value
                if consumes is not None:
                    rec["consumes"] = consumes
                lsn = self.wal.append(rec)
        entry.apply(self.store)
        if not isinstance(entry, PageAllocationRecord):
            self.store.note_write(
                entry.page_id, lsn if lsn is not None and lsn >= 0 else None
            )

    def restore_page(
        self, txn: str, page_id: str, capacity: int, slots: dict
    ) -> None:
        """Reinstall a deallocated page exactly as a logged snapshot saw it
        (recovery reverting a half-finished rollback's deallocation)."""
        lsn = None
        if self.wal is not None:
            lsn = self.wal.append(
                {
                    "t": "alloc",
                    "txn": txn,
                    "page": page_id,
                    "capacity": capacity,
                    "j": False,
                }
            )
            for slot, value in slots.items():
                lsn = self.wal.append(
                    {
                        "t": "set",
                        "txn": txn,
                        "page": page_id,
                        "slot": slot,
                        "value": value,
                        "had": False,
                        "before": None,
                        "j": False,
                    }
                )
        self.store.install(Page(page_id, capacity, dict(slots)))
        self.store.note_write(
            page_id, lsn if lsn is not None and lsn >= 0 else None
        )

    # ------------------------------------------------------------------
    # page access (called by SlotProxy)
    # ------------------------------------------------------------------

    def page_read(self, obj: DatabaseObject, slot: Any, default: Any = None) -> Any:
        ctx = self._trace_page_action(obj, "read")
        if ctx is not None:
            ctx.stats.page_reads += 1
        return self.store.get(obj.page_id).read(slot, default)

    def page_has(self, obj: DatabaseObject, slot: Any) -> bool:
        ctx = self._trace_page_action(obj, "read")
        if ctx is not None:
            ctx.stats.page_reads += 1
        return self.store.get(obj.page_id).has(slot)

    def page_keys(self, obj: DatabaseObject) -> list[Any]:
        ctx = self._trace_page_action(obj, "read")
        if ctx is not None:
            ctx.stats.page_reads += 1
        return self.store.get(obj.page_id).keys()

    def page_write(self, obj: DatabaseObject, slot: Any, value: Any) -> None:
        ctx = self._trace_page_action(obj, "write")
        page = self.store.get(obj.page_id)
        had = page.has(slot)
        before = page.read(slot)
        undo = None
        if ctx is not None:
            self._fault_hit("page-write.before")
            ctx.stats.page_writes += 1
        page.write(slot, value)
        # Journal and WAL records land only after the write succeeded (the
        # page may reject a new slot): neither undo nor redo may replay a
        # refused write.
        if ctx is not None:
            undo = UndoRecord(
                page_id=page.page_id,
                slot=slot,
                had_slot=had,
                before=before,
                after=value,
            )
            ctx.current_frame.log.record(undo)
        if self.wal is not None:
            lsn = self.wal.append(
                {
                    "t": "set",
                    "txn": ctx.txn_id if ctx is not None else None,
                    "page": page.page_id,
                    "slot": slot,
                    "value": value,
                    "had": had,
                    "before": before,
                    "j": ctx is not None
                    and not ctx.runtime_data.get("compensating"),
                }
            )
            if undo is not None and lsn >= 0:
                object.__setattr__(undo, "lsn", lsn)
            self.store.note_write(page.page_id, lsn if lsn >= 0 else None)
        else:
            self.store.note_write(page.page_id, None)
        if ctx is not None:
            self._fault_hit("page-write.after")

    def page_delete(self, obj: DatabaseObject, slot: Any) -> None:
        ctx = self._trace_page_action(obj, "write")
        page = self.store.get(obj.page_id)
        had = page.has(slot)
        before = page.read(slot)
        undo = None
        if ctx is not None:
            self._fault_hit("page-write.before")
            ctx.stats.page_writes += 1
        page.delete(slot)
        if ctx is not None:
            undo = UndoRecord(
                page_id=page.page_id,
                slot=slot,
                had_slot=had,
                before=before,
                after=DELETED,
            )
            ctx.current_frame.log.record(undo)
        if self.wal is not None:
            lsn = self.wal.append(
                {
                    "t": "del",
                    "txn": ctx.txn_id if ctx is not None else None,
                    "page": page.page_id,
                    "slot": slot,
                    "had": had,
                    "before": before,
                    "j": ctx is not None
                    and not ctx.runtime_data.get("compensating"),
                }
            )
            if undo is not None and lsn >= 0:
                object.__setattr__(undo, "lsn", lsn)
            self.store.note_write(page.page_id, lsn if lsn >= 0 else None)
        else:
            self.store.note_write(page.page_id, None)
        if ctx is not None:
            self._fault_hit("page-write.after")

    def _trace_page_action(
        self, obj: DatabaseObject, method: str
    ) -> TransactionContext | None:
        """Record (and schedule) the primitive page action; returns the
        active context, or None at bootstrap.

        The trace records the semantic truth (``read``/``write``), but the
        *lock* for a read inside an update method is requested in write
        mode — write-intent locking, the standard cure for read-to-write
        upgrade deadlocks (an update method typically reads its slots
        before overwriting them).
        """
        ctx = self._current_ctx()
        if ctx is None:
            return None
        frame = ctx.current_frame
        node = frame.node.call(obj.page_id, method)
        self._checkpoint()
        if frame.spec is None:
            exclusive = True
        elif self.scheduler.conservative_page_intent:
            exclusive = frame.spec.update
        else:
            exclusive = frame.spec.page_lock_exclusive
        lock_mode = "write" if exclusive else method
        self.scheduler.request(ctx, node, Invocation(obj.page_id, lock_mode))
        node.seq = self.system._next_seq()  # granted: stamp execution order
        bus = self.bus
        if bus.active:
            # the trace records the semantic action (read/write), like the
            # call tree itself — the lock mode is the scheduler's business
            bus.emit(
                PageAccess(
                    txn=ctx.txn_id,
                    aid=node.aid,
                    obj=obj.page_id,
                    method=method,
                    seq=node.seq,
                    tick=bus.now(),
                )
            )
        return ctx

    # ------------------------------------------------------------------
    # encapsulation & context plumbing
    # ------------------------------------------------------------------

    def check_encapsulation(self, obj: DatabaseObject) -> None:
        ctx = self._current_ctx()
        if ctx is not None and ctx.current_frame.receiver is obj:
            return
        stack = self._creation_stack()
        if stack and stack[-1] is obj:
            return
        raise EncapsulationError(
            f"state of {obj.oid} touched outside its own methods — objects "
            f"are only accessible by methods (send a message instead)"
        )

    def _creation_stack(self) -> list[DatabaseObject]:
        stack = getattr(self._local, "creation", None)
        if stack is None:
            stack = []
            self._local.creation = stack
        return stack

    def _current_ctx(self) -> TransactionContext | None:
        return getattr(self._local, "ctx", None)

    def _require_ctx(self) -> TransactionContext:
        ctx = self._current_ctx()
        if ctx is None:
            raise DatabaseError("no transaction context is active on this thread")
        return ctx

    def _checkpoint(self) -> None:
        """Interleaving hook: let the executor switch transactions here."""
        if self.env is not None:
            self.env.checkpoint()

    # ------------------------------------------------------------------
    # analysis bridge
    # ------------------------------------------------------------------

    def commutativity_registry(self) -> CommutativityRegistry:
        """The Definition 9 registry for everything this database executed:
        each object's type-level specification plus read/write pages.

        The registry is cached (invalidated when an object is created) —
        the optimistic certifier asks for it on every validation.  Callers
        must treat the returned registry as read-only; anyone who needs to
        mutate it (the oracle's ablation hook) works on ``.copy()``.
        """
        if self._registry_cache is None:
            registry = CommutativityRegistry()
            registry.register_prefix("Page", ReadWriteCommutativity())
            for oid, obj in self._objects.items():
                registry.register(oid, type(obj).commutativity)
            self._registry_cache = registry
        return self._registry_cache

    def analyze(self, **kwargs):
        """Run the oo-serializability analysis on everything executed so far.

        Returns ``(SystemVerdict, {oid: ObjectSchedule})`` — see
        :func:`repro.core.serializability.analyze_system`.  Note that the
        analysis extends the system in place (Definition 5).
        """
        from repro.core.serializability import analyze_system

        verdict, schedules = analyze_system(
            self.system, self.commutativity_registry(), **kwargs
        )
        bus = self.bus
        if bus.active:
            bus.emit(
                AnalysisVerdict(
                    source="analyze",
                    ok=bool(verdict.oo_serializable),
                    tick=bus.now(),
                )
            )
        return verdict, schedules
