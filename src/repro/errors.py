"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``TypeError``/``ValueError`` from
Python itself) from domain failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ModelError(ReproError):
    """An ill-formed formal-model construct (action, transaction, system)."""


class ScheduleError(ReproError):
    """An ill-formed or inconsistent schedule."""


class CommutativityError(ReproError):
    """A commutativity specification problem (unknown method, bad matrix)."""


class DatabaseError(ReproError):
    """Base class of errors raised by the object database substrate."""


class EncapsulationError(DatabaseError):
    """Object state was accessed outside a method execution.

    The paper's premise is that "objects are only accessible by methods
    defined in the database system"; the substrate enforces it.
    """


class UnknownObjectError(DatabaseError):
    """A message was sent to an object identifier that does not exist."""


class UnknownMethodError(DatabaseError):
    """A message named a method the receiving object type does not define."""


class PageError(DatabaseError):
    """A page-level storage failure (overflow, bad slot, missing page)."""


class TransactionAborted(ReproError):
    """Raised inside a transaction program when the scheduler aborts it.

    The executor catches this, rolls the transaction back (undoing direct
    updates and running compensations for committed subtransactions) and
    optionally restarts the program.
    """

    def __init__(self, txn_id: str, reason: str = "aborted"):
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class DeadlineExceeded(TransactionAborted):
    """A transaction overran its per-request deadline.

    Raised at an interleaving checkpoint once the executor's logical clock
    passes the program's ``deadline_tick``.  A subclass of
    :class:`TransactionAborted`, so the normal abort path rolls the victim
    back — but the executor never restarts it: the outcome surfaces as the
    ``gave_up`` liveness signal, exactly like an exhausted restart budget.
    """

    def __init__(self, txn_id: str, deadline_tick: int):
        super().__init__(txn_id, reason=f"deadline at tick {deadline_tick} exceeded")
        self.deadline_tick = deadline_tick


class RunAbandoned(TransactionAborted):
    """The executor's run failed while this transaction was in flight.

    Raised in each unfinished worker when the schedule itself fails (tick
    budget spent, every transaction blocked).  Like
    :class:`DeadlineExceeded` it rolls the attempt back through the normal
    abort path and is never restarted; unlike it, the outcome is no verdict
    on the program — the failure is reported by ``run()``.
    """

    def __init__(self, txn_id: str):
        super().__init__(txn_id, reason="run abandoned")


class DeadlockError(TransactionAborted):
    """A transaction was chosen as a deadlock victim."""

    def __init__(self, txn_id: str, cycle: tuple[str, ...] = ()):
        super().__init__(txn_id, reason="deadlock victim")
        self.cycle = cycle


class SubtransactionAbort(ReproError):
    """Raised by application code to abort the *current subtransaction*.

    Caught by :meth:`ObjectDatabase.send_atomic`: the subtransaction's
    effects are rolled back (undo + compensations, locks released) and the
    enclosing transaction continues — the recovery granularity that nesting
    buys.  If it propagates to a plain ``send``, it escalates to a full
    transaction abort.
    """

    def __init__(self, reason: str = "subtransaction aborted"):
        super().__init__(reason)
        self.reason = reason


class SimulatedCrash(BaseException):
    """A fault-injection crash: the whole system dies at this instant.

    Deliberately *not* a :class:`ReproError` (nor even an ``Exception``):
    a real crash gives no code the chance to clean up, so none of the
    library's ordinary error handling — transaction rollback, worker
    restart, simulator error accounting — may catch it and mutate state on
    the way out.  Only the executor's crash unwinding and the fault plane
    itself handle it.
    """

    def __init__(self, site: str, occurrence: int = 0):
        super().__init__(f"simulated crash at {site} (occurrence {occurrence})")
        self.site = site
        self.occurrence = occurrence


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state.

    Carries the executor seed (when known) so that any failure message is
    immediately reproducible: rerun with the same seed and the identical
    interleaving replays.
    """

    def __init__(self, message: str, *, seed: int | None = None):
        if seed is not None:
            message = f"{message} [executor seed={seed}]"
        super().__init__(message)
        self.seed = seed
