"""Lost-wakeup tolerance and the explicit ``gave_up`` outcome flag.

The executor's ``wake_keys`` may have its notification swallowed by fault
injection (a lost wakeup); the controller's sweep must still complete the
run.  Separately, a worker that exhausts its restart budget is marked
``gave_up`` — a *liveness* outcome that must stay distinguishable from
"uncommitted because the system crashed mid-run".
"""

from repro.core.commutativity import MatrixCommutativity
from repro.core.judge import check_history
from repro.faults import FaultPlan
from repro.locking import PageLocking2PL
from repro.oodb import DatabaseObject, ObjectDatabase, dbmethod
from repro.oodb.wal import WriteAheadLog
from repro.runtime import InterleavedExecutor, TransactionProgram


class Cell(DatabaseObject):
    commutativity = MatrixCommutativity({("put", "put"): False})

    def setup(self):
        self.data["v"] = 0

    @dbmethod(update=True)
    def put(self, value):
        self.data["v"] = value


def put_program(label, oid, value, max_restarts=20):
    def body(api):
        api.send(oid, "put", value)
        api.work(2)
        api.send(oid, "put", value + 1)

    return TransactionProgram(label, body, max_restarts=max_restarts)


class TestLostWakeups:
    def test_dropped_wakeups_do_not_strand_blocked_workers(self):
        plan = FaultPlan(drop_wakeups_at=frozenset(range(10_000)))
        db = ObjectDatabase(scheduler=PageLocking2PL(), page_capacity=16)
        oid = db.create(Cell, oid="C")
        executor = InterleavedExecutor(db, seed=3, faults=plan)
        result = executor.run(
            [put_program(f"T{i}", oid, 10 * i) for i in range(3)]
        )
        # contention on one page means wakeups were actually swallowed
        assert plan.counts.get("wakeup", 0) > 0
        assert result.all_committed

    def test_no_drops_means_no_sweep_needed(self):
        db = ObjectDatabase(scheduler=PageLocking2PL(), page_capacity=16)
        oid = db.create(Cell, oid="C")
        executor = InterleavedExecutor(db, seed=3)
        result = executor.run(
            [put_program(f"T{i}", oid, 10 * i) for i in range(3)]
        )
        assert result.all_committed


class TestGaveUpFlag:
    def test_exhausted_restarts_set_gave_up(self):
        # every top-level dispatch fails transiently: the worker can never
        # commit and must give up after max_restarts + 1 attempts
        plan = FaultPlan(transient_at=frozenset(range(10_000)))
        db = ObjectDatabase(scheduler=PageLocking2PL(), page_capacity=16)
        oid = db.create(Cell, oid="C")
        executor = InterleavedExecutor(db, seed=0, faults=plan)
        result = executor.run([put_program("T", oid, 1, max_restarts=2)])
        (outcome,) = result.outcomes
        assert outcome.gave_up
        assert not outcome.committed
        assert outcome.attempts == 3
        assert result.gave_up == [outcome]
        assert check_history(result).gave_up == 1

    def test_crash_is_not_gave_up(self):
        # uncommitted because the system died, not because retries ran out
        plan = FaultPlan.crash_plan("commit.before", 0)
        db = ObjectDatabase(
            scheduler=PageLocking2PL(),
            page_capacity=16,
            wal=WriteAheadLog(),
            faults=plan,
        )
        oid = db.create(Cell, oid="C")
        executor = InterleavedExecutor(db, seed=0, faults=plan)
        result = executor.run([put_program("T", oid, 1)])
        assert result.crashed
        (outcome,) = result.outcomes
        assert not outcome.committed
        assert not outcome.gave_up
        assert result.gave_up == []
