"""The interleaved executor: deterministic simulated concurrency.

Each transaction program runs in its own worker thread, but a baton
guarantees that exactly one of them executes at a time; workers give it up
at every database action (``ObjectDatabase`` calls
:meth:`InterleavedExecutor.checkpoint` before each send and page access).
A seeded RNG picks the next runnable worker, making every interleaving
reproducible.  Lock waits park the worker until the scheduler's
``wake_all``; deadlock victims abort (undo + compensation via
``ObjectDatabase.abort``) and restart as fresh transactions.

The baton is passed directly: every worker parks on a private lock, the
schedule is a generator (:meth:`InterleavedExecutor._schedule`), and the
thread that gives the baton up draws the next worker from it and releases
exactly that worker's lock.  The thread that called ``run()`` is woken only
when the schedule ends — done, stalled, or failed.

The executor doubles as the scheduler's
:class:`~repro.locking.interfaces.WaitEnvironment` and as the database's
``env`` (checkpoint source and logical clock).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import (
    DeadlineExceeded,
    RunAbandoned,
    SimulatedCrash,
    SimulationError,
    TransactionAborted,
)
from repro.obs.events import TxnRestart
from repro.runtime.program import ProgramAPI, TransactionProgram

if TYPE_CHECKING:  # pragma: no cover
    from repro.oodb.context import TransactionContext
    from repro.oodb.database import ObjectDatabase

_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"


@dataclass(frozen=True)
class RetryPolicy:
    """The restart backoff policy: exponential delay ceilings with jitter.

    Simultaneously restarting deadlock/validation victims would re-collide
    indefinitely (livelock); randomized exponential delays break the
    symmetry.  The jitter is always drawn from the RNG the caller passes —
    the executor hands in its own seeded RNG, never a process global — so a
    replay with the same seed draws the same delays and stays
    byte-identical, retries included.

    The default values reproduce the historical backoff stream exactly
    (ceiling ``min(2**(attempt+1), 64)``, delay ``1 + randrange(ceiling)``).
    """

    #: exponent base of the delay ceiling for attempt ``n``: ``base**(n+1)``
    base: int = 2
    #: upper bound on the delay ceiling (ticks)
    cap: int = 64

    def delay_for(self, attempt: int, rng: random.Random) -> int:
        """How many ticks the victim of ``attempt`` waits before retrying."""
        ceiling = max(1, min(self.base ** (attempt + 1), self.cap))
        return 1 + rng.randrange(ceiling)

    def to_dict(self) -> dict:
        return {"base": self.base, "cap": self.cap}

    @staticmethod
    def from_dict(data: dict | None) -> "RetryPolicy":
        if not data:
            return RetryPolicy()
        return RetryPolicy(
            base=int(data.get("base", 2)), cap=int(data.get("cap", 64))
        )


@dataclass
class WorkerOutcome:
    """Result of one program under the executor."""

    program: TransactionProgram
    committed: bool = False
    attempts: int = 0
    final_ctx: "TransactionContext | None" = None
    aborted_ctxs: list = field(default_factory=list)
    error: BaseException | None = None
    #: executor seed of the run that produced this outcome (reproduction key)
    seed: int | None = None
    #: exhausted max_restarts without committing (every attempt aborted —
    #: distinct from "still aborted because the run crashed mid-flight")
    gave_up: bool = False
    #: the program's deadline passed before it could commit (a ``gave_up``
    #: sub-case: the liveness failure was imposed, not exhausted)
    deadline_exceeded: bool = False
    #: the worker thread failed to stop within the executor's join timeout —
    #: a liveness failure surfaced in metrics, never a silent drop
    hung: bool = False
    #: the coordinator of a sharded run aborted this branch after it voted
    #: (Definition 16 cycle or cross-shard deadlock) — no restart follows,
    #: and the whole cross-shard transaction aborted with it
    cross_abort: bool = False

    @property
    def label(self) -> str:
        return self.program.label

    @property
    def finished(self) -> bool:
        """The program reached a verdict of its own: committed, gave up or
        failed.  False for a worker rolled back because the run failed."""
        return self.committed or self.gave_up or self.error is not None


@dataclass
class ExecutionResult:
    """Aggregate outcome of one interleaved run."""

    outcomes: list[WorkerOutcome]
    makespan: int
    scheduler_stats: dict
    db: "ObjectDatabase"
    #: executor seed of this run (reproduction key)
    seed: int | None = None
    #: the run ended in a simulated crash (fault injection)
    crashed: bool = False

    @property
    def committed(self) -> list[WorkerOutcome]:
        return [o for o in self.outcomes if o.committed]

    @property
    def gave_up(self) -> list[WorkerOutcome]:
        return [o for o in self.outcomes if o.gave_up]

    @property
    def hung(self) -> list[WorkerOutcome]:
        return [o for o in self.outcomes if o.hung]

    @property
    def deadline_exceeded(self) -> list[WorkerOutcome]:
        return [o for o in self.outcomes if o.deadline_exceeded]

    @property
    def committed_labels(self) -> set[str]:
        return {
            o.final_ctx.txn_id for o in self.outcomes if o.committed and o.final_ctx
        }

    @property
    def total_restarts(self) -> int:
        return sum(max(0, o.attempts - 1) for o in self.outcomes)

    @property
    def all_committed(self) -> bool:
        return all(o.committed for o in self.outcomes)


class _Worker:
    def __init__(self, executor: "InterleavedExecutor", program: TransactionProgram):
        self.executor = executor
        self.program = program
        self.state = _READY
        self.outcome = WorkerOutcome(program=program)
        self.blocked_since = 0
        self.wait_key: str | None = None
        #: the baton: held while the worker is parked, released by whichever
        #: thread schedules it next
        self.baton = threading.Lock()
        self.baton.acquire()
        self.thread = threading.Thread(
            target=self._run, name=f"txn-{program.label}", daemon=True
        )

    # -- thread body ------------------------------------------------------------

    def _run(self) -> None:
        executor = self.executor
        db = executor.db
        try:
            executor._wait_until_scheduled(self)
            for attempt in range(self.program.max_restarts + 1):
                if executor._deadline_passed(self.program):
                    # The deadline ran out between attempts (ticks spent in
                    # a backoff count against it): no further attempt starts.
                    self.outcome.deadline_exceeded = True
                    break
                self.outcome.attempts = attempt + 1
                ctx = db.begin(self.program.attempt_label(attempt))
                ctx.stats.begin_tick = executor.now
                api = ProgramAPI(db, ctx, executor)
                try:
                    self.program.body(api)
                    self._finalize(ctx)
                    return
                except SimulatedCrash:
                    # The system died mid-action.  No rollback, no lock
                    # release, no restart: volatile state is gone and
                    # recovery (from the WAL) owns everything else.
                    executor.crashed = True
                    return
                except RunAbandoned:
                    # The run failed under this attempt: roll it back so
                    # its locks do not outlive the run, and stop.
                    db.abort(ctx, "run abandoned")
                    self.outcome.aborted_ctxs.append(ctx)
                    return
                except DeadlineExceeded:
                    # Mapped onto the gave_up liveness signal: the victim
                    # rolls back like any abort, but never restarts.
                    db.abort(ctx, "deadline exceeded")
                    self.outcome.aborted_ctxs.append(ctx)
                    self.outcome.deadline_exceeded = True
                    break
                except TransactionAborted:
                    db.abort(ctx, "scheduler abort")
                    self.outcome.aborted_ctxs.append(ctx)
                    ctx.stats.restarts += 1
                    if attempt < self.program.max_restarts:
                        bus = db.bus
                        if bus.active:
                            bus.emit(
                                TxnRestart(
                                    txn=ctx.txn_id,
                                    attempt=attempt + 1,
                                    tick=bus.now(),
                                )
                            )
                    executor._backoff(self, attempt)
                except BaseException as exc:
                    # A bug in a program or the substrate: record it, but
                    # release the transaction's locks so other workers are
                    # not stranded, then surface the error after the run.
                    self.outcome.error = exc
                    db.abort(ctx, f"worker crashed: {exc!r}")
                    return
            self.outcome.gave_up = True
            self.outcome.final_ctx = None  # gave up (restarts or deadline)
            if self.outcome.deadline_exceeded:
                executor._count("executor_deadline_gave_up_total",
                                "programs that gave up on a passed deadline")
        except SimulatedCrash:
            # Unwound while the crash propagated (e.g. parked in a lock
            # wait, a backoff, or rolling back when the system died).
            executor.crashed = True
        except RunAbandoned:
            pass  # resumed between attempts (or before the first) to stop
        except BaseException as exc:  # pragma: no cover - defensive
            self.outcome.error = exc
        finally:
            executor._worker_done(self)

    def _finalize(self, ctx) -> None:
        """Terminal step of a successful attempt: commit and record it.

        The sharded runtime's two-phase worker overrides this — a branch of
        a cross-shard transaction must vote and park for the coordinator's
        decision instead of committing unilaterally.
        """
        self.executor.db.commit(ctx)
        self.outcome.committed = True
        self.outcome.final_ctx = ctx


class InterleavedExecutor:
    """Runs transaction programs concurrently and deterministically."""

    def __init__(
        self,
        db: "ObjectDatabase",
        seed: int = 0,
        max_ticks: int = 1_000_000,
        faults=None,
        retry_policy: RetryPolicy | None = None,
        join_timeout: float = 30.0,
    ):
        self.db = db
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_ticks = max_ticks
        self.now = 0
        self.faults = faults
        #: restart backoff policy; jitter drawn from this executor's seeded
        #: RNG so replays (retries included) are byte-identical
        self.retry_policy = retry_policy or RetryPolicy()
        #: how long run() waits for each worker thread to stop before
        #: declaring it hung (a liveness failure, surfaced in metrics)
        self.join_timeout = join_timeout
        #: a SimulatedCrash fired somewhere; every worker unwinds
        self.crashed = False
        #: scheduling steps taken and how many of them changed thread, this
        #: run (folded into the metrics registry by :meth:`finish`)
        self.slices = 0
        self.thread_switches = 0
        self._wakeups_dropped = 0
        self._workers: list[_Worker] = []
        #: who holds the baton: a worker, or "controller" for the thread
        #: that called run()/_controller_loop(), which parks on ``_caller``
        self._current: object = "controller"
        self._caller = threading.Lock()
        self._caller.acquire()
        #: the running schedule, and how it ended: _controller_loop()'s
        #: return value, or the exception it re-raises
        self._steps = None
        self._verdict: str | None = None
        self._failure: BaseException | None = None
        #: the run's tick budget as an absolute clock value (see start())
        self._tick_limit = max_ticks
        #: the schedule failed; unfinished workers resume only to abort
        self._abandoned = False
        db.env = self
        db.scheduler.bind_environment(self)
        # The database's event bus tells time in this executor's logical
        # ticks (clock binding is independent of whether anyone listens).
        db.bus.clock = self._clock
        if faults is not None and getattr(db, "faults", None) is None:
            db.faults = faults

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, programs: list[TransactionProgram]) -> ExecutionResult:
        """Execute all programs to completion; returns the aggregate result."""
        if not programs:
            return ExecutionResult(
                [], 0, dict(self._scheduler_stats()), self.db, seed=self.seed
            )
        self.start(programs)
        try:
            self._controller_loop()
        except Exception:
            self._abandon()
            raise
        return self.finish()

    def start(self, programs: list[TransactionProgram]) -> None:
        """Create and launch the worker threads without driving them.

        Split out of :meth:`run` for the sharded runtime, which drives the
        controller loop in epochs (run until quiescent, exchange votes,
        resume) instead of in one shot.
        """
        self._workers = [self._make_worker(program) for program in programs]
        # max_ticks is a budget per run: the clock of a persistent executor
        # (the service's, a shard's) never resets.
        self._tick_limit = self.now + self.max_ticks
        self.slices = self.thread_switches = 0
        for worker in self._workers:
            worker.outcome.seed = self.seed
            worker.thread.start()

    def _make_worker(self, program: TransactionProgram) -> _Worker:
        return _Worker(self, program)

    def finish(self) -> ExecutionResult:
        """Join the workers, seal the scheduler, assemble the result.

        A drained run is a quiescent point unless a worker hung (it may
        still be mid-transaction), so only then is the scheduler sealed.
        """
        if not self._join_workers():
            self.db.scheduler.seal()
        metrics = self.db.metrics
        metrics.counter(
            "executor_slices_total", "execution slices the schedule handed out"
        ).inc(self.slices)
        metrics.counter(
            "executor_thread_switches_total",
            "baton hand-offs that changed thread",
        ).inc(self.thread_switches)
        for worker in self._workers:
            if worker.outcome.error is not None and not worker.outcome.hung:
                raise worker.outcome.error
        return ExecutionResult(
            outcomes=[w.outcome for w in self._workers],
            makespan=self.now,
            scheduler_stats=dict(self._scheduler_stats()),
            db=self.db,
            seed=self.seed,
            crashed=self.crashed,
        )

    def _join_workers(self) -> list[_Worker]:
        """Join every worker thread, detecting (not swallowing) hangs.

        A thread still alive after ``join_timeout`` is a liveness failure:
        the outcome is marked ``hung`` + ``gave_up`` (its commit never
        happened, so this cannot misreport a success), the failure is
        counted in ``executor_hung_workers_total``, and its recorded error —
        a :class:`SimulationError` naming the worker and seed — is kept on
        the outcome for the caller instead of being raised, so the other
        workers' results survive.
        """
        hung: list[_Worker] = []
        for worker in self._workers:
            worker.thread.join(timeout=self.join_timeout)
            if worker.thread.is_alive():
                worker.outcome.hung = True
                worker.outcome.gave_up = True
                worker.outcome.committed = False
                worker.outcome.final_ctx = None
                worker.outcome.error = SimulationError(
                    f"worker {worker.program.label} did not stop within "
                    f"{self.join_timeout}s (hung thread)",
                    seed=self.seed,
                )
                self._count(
                    "executor_hung_workers_total",
                    "worker threads that failed to stop within the join "
                    "timeout (liveness failures)",
                )
                hung.append(worker)
        return hung

    def _count(self, name: str, help: str) -> None:
        self.db.metrics.counter(name, help).inc()

    def _clock(self) -> int:
        return self.now

    def _scheduler_stats(self) -> dict:
        # Every scheduler guarantees a uniformly-keyed ``stats`` view (the
        # registry counters of repro.obs.metrics.STAT_KEYS, pre-initialized
        # at construction) — no silent-empty fallback.
        return self.db.scheduler.stats

    # ------------------------------------------------------------------
    # the schedule and the baton
    # ------------------------------------------------------------------

    def _controller_loop(self) -> str:
        """Drive the workers until the schedule ends; the caller's half of
        the baton protocol.

        Returns ``"done"`` when every worker finished, or ``"stalled"``
        when :meth:`_on_stall` asked for control back (the sharded
        executor's quiescence point; the base executor never stalls).  A
        failure of the schedule — whichever thread ran the step that found
        it — is raised here, on the calling thread.
        """
        self._steps = self._schedule()
        self._pass_baton(None)
        failure, self._failure = self._failure, None
        if failure is not None:
            raise failure
        return self._verdict

    def _schedule(self):
        """Synchronous rounds: one tick of simulated time per round, one
        execution slice per runnable worker per round.  Yields the worker
        of each slice; returns ``"done"`` or ``"stalled"``.

        Transactions therefore *overlap*: four workers thinking or acting
        concurrently advance the clock by one, while a blocked worker's
        round is lost — which is exactly how lock waits turn into latency
        and reduced throughput.

        Whichever thread holds the baton resumes this generator, so the RNG
        is drawn in one order no matter which threads do the drawing.
        """
        while True:
            pending = [w for w in self._workers if w.state != _DONE]
            if not pending:
                return "done"
            if self.crashed:
                # Unwind parked workers: they resume only to observe
                # the crash and die (their locks are never released).
                self._wake()
            runnable = [w for w in pending if w.state == _READY]
            if not runnable:
                if not self._on_stall(pending):
                    return "stalled"
                continue
            self.now += 1
            if self.now > self._tick_limit:
                raise SimulationError(
                    "simulation exceeded max_ticks", seed=self.seed
                )
            self.rng.shuffle(runnable)
            for worker in runnable:
                if worker.state != _READY:
                    continue  # blocked or finished earlier in this round
                worker.state = _RUNNING
                yield worker

    def _pass_baton(self, me: _Worker | None) -> None:
        """Take the next scheduling step and wake whoever it names.

        Called by the thread that holds the baton — worker ``me``, or the
        caller of :meth:`_controller_loop` (``None``) — which then parks
        until the baton comes back, unless it is its own successor or is
        finished.  Holding the baton is the mutual exclusion: everything
        here, and every worker state flip, runs on one thread at a time.
        """
        try:
            successor = next(self._steps)
        except StopIteration as stop:
            self._verdict, successor = stop.value, None
        except BaseException as exc:  # re-raised by _controller_loop()
            self._failure, successor = exc, None
        else:
            self.slices += 1
        self._current = "controller" if successor is None else successor
        if successor is me:
            return
        self.thread_switches += 1
        (self._caller if successor is None else successor.baton).release()
        if me is None:
            self._caller.acquire()
        elif me.state != _DONE:
            me.baton.acquire()

    def _on_stall(self, pending: list[_Worker]) -> bool:
        """No worker is runnable: recover, stall, or fail.

        Returns True to keep the schedule going (after a recovery action)
        and False to return control to the caller with the workers parked
        as they are — only the sharded executor does the latter, at its
        two-phase-commit quiescence point.
        """
        errors = [
            w.outcome.error
            for w in self._workers
            if w.outcome.error is not None
        ]
        if errors:
            raise errors[0]
        if self._wakeups_dropped:
            # Lost-wakeup tolerance: a swallowed notification (fault
            # injection) may have stranded the blocked workers; sweep-wake
            # them so they re-check their lock conditions.  Only when
            # drops actually happened — a stall without them is still a bug.
            self._wakeups_dropped = 0
            self._wake()
            return True
        blocked = {w.program.label: w.state for w in pending}
        raise SimulationError(
            f"all transactions blocked — scheduler bug? {blocked}",
            seed=self.seed,
        )

    def _abandon(self) -> None:
        """The schedule failed: let every unfinished worker abort and exit.

        The database may outlive this run (the service's does), so parked
        threads and the locks of their open attempts must not.  Each worker
        resumes into :class:`RunAbandoned`, rolls its attempt back — under
        the ordinary schedule, since compensations take locks too — and
        stops.  If even that fails the threads stay parked.
        """
        self._abandoned = True
        self._wake()
        self._tick_limit = self.now + self.max_ticks
        try:
            self._controller_loop()
        except Exception:
            return
        finally:
            self._abandoned = False
        self._join_workers()

    # ------------------------------------------------------------------
    # worker-side primitives
    # ------------------------------------------------------------------

    def _wait_until_scheduled(self, worker: _Worker) -> None:
        worker.baton.acquire()
        self._resumed(worker)

    def _yield_baton(self, worker: _Worker, new_state: str) -> None:
        worker.state = new_state
        self._pass_baton(worker)
        self._resumed(worker)

    def _resumed(self, worker: _Worker) -> None:
        """What a worker checks every time the baton comes back to it."""
        if self.crashed:
            # Resumed into a dead system: the worker exists only to unwind.
            raise SimulatedCrash("crash.unwind")
        if self._abandoned:
            # A rollback under way is allowed to finish, as with deadlines.
            ctx = self.db._current_ctx()
            if ctx is None or not ctx.runtime_data.get("compensating"):
                raise RunAbandoned(worker.program.label)

    def _current_worker(self) -> _Worker | None:
        current = self._current
        return current if isinstance(current, _Worker) else None

    def checkpoint(self) -> None:
        """Interleaving point: give the baton up so the schedule can switch.

        Doubles as the deadline watchdog: a program whose ``deadline_tick``
        has passed is aborted here with :class:`DeadlineExceeded` — except
        while it is compensating, because an interrupted rollback would
        leave effects nothing ever removes.  Every action request passes
        through a checkpoint before reaching the scheduler, so enforcement
        lags a blocking lock wait by at most one action.
        """
        worker = self._current_worker()
        if worker is None or threading.current_thread() is not worker.thread:
            return  # bootstrap / non-simulated caller
        self._yield_baton(worker, _READY)
        if self._deadline_passed(worker.program):
            ctx = self.db._current_ctx()
            if ctx is None or not ctx.runtime_data.get("compensating"):
                raise DeadlineExceeded(
                    worker.program.label, worker.program.deadline_tick
                )

    def _deadline_passed(self, program: TransactionProgram) -> bool:
        deadline = program.deadline_tick
        return deadline is not None and self.now >= deadline

    def _backoff(self, worker: _Worker, attempt: int) -> None:
        """Policy-driven backoff before restarting a victim (see
        :class:`RetryPolicy`); jitter comes from this executor's seeded RNG,
        never a process global, so replays with retries are byte-identical.
        A passed deadline cuts the wait short — the pre-attempt check then
        turns the outcome into ``gave_up``.
        """
        delay = self.retry_policy.delay_for(attempt, self.rng)
        for _ in range(delay):
            if self._deadline_passed(worker.program):
                return
            self._yield_baton(worker, _READY)

    def _worker_done(self, worker: _Worker) -> None:
        worker.state = _DONE
        self._pass_baton(worker)

    # ------------------------------------------------------------------
    # WaitEnvironment (used by the locking schedulers)
    # ------------------------------------------------------------------

    def wait_for(self, ctx, reason: str) -> None:
        """Park the current worker until its wait key is woken.

        ``reason`` doubles as the wait key (the schedulers pass the object
        id being locked), enabling targeted wakeups.
        """
        worker = self._current_worker()
        if worker is None:  # pragma: no cover - schedulers only run workers
            raise SimulationError(
                f"wait_for outside a worker: {reason}", seed=self.seed
            )
        blocked_at = self.now
        worker.wait_key = reason
        self._yield_baton(worker, _BLOCKED)
        worker.wait_key = None
        ctx.stats.wait_ticks += self.now - blocked_at

    def _wake(self, keys=None) -> None:
        """Make the blocked workers waiting on one of ``keys`` (all of them
        when ``None``) runnable; they re-check their condition when next
        scheduled.  Callers hold the baton, so no lock is taken."""
        for worker in self._workers:
            if worker.state == _BLOCKED and (
                keys is None or worker.wait_key in keys
            ):
                worker.state = _READY

    def wake_all(self) -> None:
        """Make every blocked worker runnable again (they re-check locks)."""
        self._wake()

    def wake_keys(self, keys) -> None:
        """Wake only the workers whose wait key is in ``keys``."""
        if self.faults is not None and self.faults.drop_wakeup():
            # Fault injection: the release notification is lost.  The
            # schedule's lost-wakeup sweep is the safety net.
            self._wakeups_dropped += 1
            return
        self._wake(keys)


def run_sequential(
    db: "ObjectDatabase", programs: list[TransactionProgram]
) -> list[WorkerOutcome]:
    """Run programs one after another on the current thread (no overlap).

    Useful for building traces and golden baselines: a sequential run is a
    serial schedule by construction.
    """
    outcomes = []
    for program in programs:
        outcome = WorkerOutcome(program=program, attempts=1)
        ctx = db.begin(program.label)
        api = ProgramAPI(db, ctx, None)
        try:
            program.body(api)
            db.commit(ctx)
            outcome.committed = True
            outcome.final_ctx = ctx
        except TransactionAborted:
            db.abort(ctx)
            outcome.aborted_ctxs.append(ctx)
        outcomes.append(outcome)
    return outcomes
