"""Transaction programs.

A program is the application code of one top-level transaction: a callable
receiving a :class:`ProgramAPI` and issuing message sends through it.  The
same program can be executed several times (restarts after deadlock
aborts), each attempt as a fresh top-level transaction.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.oodb.context import TransactionContext
    from repro.oodb.database import ObjectDatabase
    from repro.runtime.executor import InterleavedExecutor


class ProgramAPI:
    """What a transaction program may do: send messages and spend time."""

    def __init__(
        self,
        db: "ObjectDatabase",
        ctx: "TransactionContext",
        executor: "InterleavedExecutor | None" = None,
    ):
        self._db = db
        self._ctx = ctx
        self._executor = executor

    @property
    def txn_id(self) -> str:
        return self._ctx.txn_id

    def send(self, oid: str, method: str, *args: Any) -> Any:
        """Send a top-level message to an object."""
        return self._db.send(self._ctx, oid, method, *args)

    def send_atomic(self, oid: str, method: str, *args: Any, default: Any = None) -> Any:
        """Send a message as an abortable subtransaction: a
        :class:`~repro.errors.SubtransactionAbort` raised inside rolls back
        only this call and returns ``default``."""
        return self._db.send_atomic(self._ctx, oid, method, *args, default=default)

    def work(self, ticks: int = 1) -> None:
        """Model local computation (editing, thinking): spend simulated time
        without touching the database.  Under the interleaved executor other
        transactions run during this time; sequentially it is a no-op."""
        if self._executor is not None:
            for _ in range(ticks):
                self._executor.checkpoint()


@dataclass
class TransactionProgram:
    """A named transaction program with its restart policy."""

    label: str
    body: Callable[[ProgramAPI], Any]
    #: how often a deadlock-aborted attempt is retried before giving up
    max_restarts: int = 20
    #: opaque tag for workload bookkeeping (e.g. "reader"/"writer")
    kind: str = ""
    #: absolute logical tick by which the program must commit; once the
    #: executor's clock passes it the current attempt is aborted, no
    #: further attempt starts, and the outcome surfaces as ``gave_up``
    #: (None = no deadline)
    deadline_tick: int | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def attempt_label(self, attempt: int) -> str:
        """Unique transaction label per execution attempt."""
        return self.label if attempt == 0 else f"{self.label}.r{attempt}"


_ATTEMPT_SUFFIX = re.compile(r"\.r\d+$")


def base_label(label: str) -> str:
    """Invert :meth:`TransactionProgram.attempt_label`: strip the restart
    suffix — ``T3.r2`` -> ``T3`` (``T3`` stays ``T3``)."""
    return _ATTEMPT_SUFFIX.sub("", label)


def program_from_ops(
    label: str,
    ops: list,
    *,
    max_restarts: int = 20,
    kind: str = "",
    deadline_tick: int | None = None,
) -> TransactionProgram:
    """Compile an op list — ``["send", oid, method, key, amount]`` or
    ``["work", ticks]`` entries — into an executable transaction program."""

    def body(api, ops=tuple(tuple(op) for op in ops)):
        for op in ops:
            if op[0] == "send":
                _, oid, method, key, amount = op
                api.send(oid, method, int(key), int(amount))
            else:
                api.work(int(op[1]))

    return TransactionProgram(
        label,
        body,
        max_restarts=max_restarts,
        kind=kind,
        deadline_tick=deadline_tick,
    )
