"""The shard-side executor: the interleaved executor plus a 2PC vote point.

A branch of a multi-shard transaction two-phase commits: it runs its body,
votes (``scheduler.prepare`` + a durable ``prepare`` record), and parks on a
``2pc:<label>`` wait key until the coordinator's verdict arrives.
Single-shard transactions take the 1PC fast path — they commit locally the
moment their body finishes, exactly like the single-core executor, which is
why a 1-shard run is byte-identical to ``execute_cell``.
"""

from __future__ import annotations

from repro.errors import RunAbandoned
from repro.runtime.executor import _BLOCKED, InterleavedExecutor, _Worker
from repro.runtime.program import base_label
from repro.shard.coordinator import ABORT, COMMIT


class _TwoPhaseWorker(_Worker):
    """A branch of a cross-shard transaction: vote, park, obey the verdict."""

    def _finalize(self, ctx) -> None:
        executor: "ShardExecutor" = self.executor  # type: ignore[assignment]
        db = executor.db
        base = self.program.label
        if executor.decisions.get(base) == ABORT:
            # The transaction was aborted globally (a Definition 16 victim,
            # a failed sibling branch, or a deadlock break) while this
            # branch was still running its body.  Don't vote for the dead:
            # roll back, and never restart — the verdict is final.
            self._cross_abort(ctx)
            return
        # The local vote: certification/lock-conversion runs *now* (a
        # failure raises TransactionAborted and restarts the branch — it
        # has not voted yet), and the prepare record is forced so recovery
        # can hold this shard to its promise.
        db.scheduler.prepare(ctx)
        db._fault_hit("2pc.prepare")
        if db.wal is not None:
            db.wal.append({"t": "prepare", "txn": ctx.txn_id})
            db.wal.sync()
        verdict = executor._vote_and_wait(ctx)
        if verdict == COMMIT:
            db._fault_hit("2pc.commit")
            db.commit(ctx, prepared=True)
            self.outcome.committed = True
            self.outcome.final_ctx = ctx
        else:
            self._cross_abort(ctx)

    def _cross_abort(self, ctx) -> None:
        self.executor.db.abort(ctx, "cross-shard transaction aborted")
        self.outcome.aborted_ctxs.append(ctx)
        self.outcome.cross_abort = True


class ShardExecutor(InterleavedExecutor):
    """The interleaved executor with a two-phase-commit quiescence point.

    ``multi_labels`` are the base labels of the running batch's
    transactions that span shards; their programs get
    :class:`_TwoPhaseWorker` bodies.  Everything else — scheduling,
    backoff, restarts, fault handling — is inherited unchanged, so a shard
    with no cross-shard branches behaves exactly like the single-core
    executor.
    """

    def start(self, programs, multi_labels=()) -> None:
        """Launch one batch with fresh 2PC state: the last batch ended with
        every attempt decided, so nothing carries over."""
        self.multi_labels = set(multi_labels)
        #: base label -> COMMIT | ABORT, as broadcast by the coordinator
        self.decisions: dict[str, str] = {}
        #: base label -> attempt label of the branch that voted
        self.prepared_attempts: dict[str, str] = {}
        super().start(programs)

    def _make_worker(self, program) -> _Worker:
        if program.label in self.multi_labels:
            return _TwoPhaseWorker(self, program)
        return _Worker(self, program)

    def _on_stall(self, pending) -> bool:
        # Quiescent for this epoch: someone is parked waiting for a 2PC
        # verdict that only the coordinator (outside this loop) can
        # deliver.  Hand control back to the epoch driver.
        if not self.crashed and any(
            w.state == _BLOCKED and (w.wait_key or "").startswith("2pc:")
            for w in pending
        ):
            return False
        return super()._on_stall(pending)

    def _vote_and_wait(self, ctx) -> str:
        """Record the vote, then park until the coordinator has decided."""
        base = base_label(ctx.txn_id)
        self.prepared_attempts[base] = ctx.txn_id
        while True:
            verdict = self.decisions.get(base)
            if verdict is not None:
                return verdict
            try:
                self.wait_for(ctx, f"2pc:{base}")
            except RunAbandoned:
                # The run failed, but a branch the coordinator committed
                # must commit: its sibling branches on the other shards do.
                if self.decisions.get(base) != COMMIT:
                    raise

    def apply_decisions(self, decisions: dict[str, str]) -> None:
        """Adopt a round of verdicts and wake the parked branches.

        The wakeup bypasses ``wake_keys`` on purpose: coordinator verdicts
        are control messages, not lock releases, so the fault plane's
        dropped-wakeup injection must not eat them.
        """
        if not decisions:
            return
        self.decisions.update(decisions)
        self._wake({f"2pc:{base}" for base in decisions})
