"""Tests of the interleaved executor: determinism, blocking, deadlocks,
restarts and end-state consistency."""

import pytest

from repro.core.commutativity import MatrixCommutativity
from repro.locking import OpenNestedLocking, PageLocking2PL
from repro.oodb import DatabaseObject, ObjectDatabase, dbmethod
from repro.runtime import (
    InterleavedExecutor,
    TransactionProgram,
    run_sequential,
)
from repro.runtime.program import base_label
from repro.structures import Account, build_encyclopedia


class Keyed(DatabaseObject):
    commutativity = MatrixCommutativity(
        {
            ("get", "get"): True,
            ("get", "put"): lambda a, b: a.args[0] != b.args[0],
            ("put", "put"): lambda a, b: a.args[0] != b.args[0],
            ("erase", "get"): lambda a, b: a.args[0] != b.args[0],
            ("erase", "put"): lambda a, b: a.args[0] != b.args[0],
            ("erase", "erase"): lambda a, b: a.args[0] != b.args[0],
        }
    )

    def setup(self):
        pass

    @dbmethod
    def get(self, key):
        return self.data.get(key)

    @dbmethod(
        update=True,
        compensation=lambda args, result: (
            ("put", (args[0], result)) if result is not None else ("erase", (args[0],))
        ),
    )
    def put(self, key, value):
        old = self.data.get(key)
        self.data[key] = value
        return old

    @dbmethod(update=True)
    def erase(self, key):
        if key in self.data:
            del self.data[key]


def test_base_label_inverts_attempt_label():
    assert base_label("a.run.r2") == "a.run"
    assert base_label("T3") == "T3"


def writer_program(label, oid, key, value, think=0):
    def body(api):
        api.send(oid, "put", key, value)
        if think:
            api.work(think)
        api.send(oid, "get", key)

    return TransactionProgram(label, body)


class TestSequential:
    def test_run_sequential_commits_everything(self):
        db = ObjectDatabase()
        oid = db.create(Keyed)
        outcomes = run_sequential(
            db, [writer_program(f"T{i}", oid, f"k{i}", i) for i in range(3)]
        )
        assert all(o.committed for o in outcomes)
        ctx = db.begin()
        for i in range(3):
            assert db.send(ctx, oid, "get", f"k{i}") == i
        db.commit(ctx)


class TestInterleaved:
    def test_empty_run(self):
        db = ObjectDatabase(scheduler=OpenNestedLocking())
        result = InterleavedExecutor(db).run([])
        assert result.outcomes == [] and result.makespan == 0

    def test_all_commit_with_open_nesting(self):
        db = ObjectDatabase(scheduler=OpenNestedLocking())
        oid = db.create(Keyed)
        programs = [writer_program(f"T{i}", oid, f"k{i}", i, think=2) for i in range(5)]
        result = InterleavedExecutor(db, seed=3).run(programs)
        assert result.all_committed
        assert result.makespan > 0
        ctx = db.begin()
        for i in range(5):
            assert db.send(ctx, oid, "get", f"k{i}") == i
        db.commit(ctx)

    def test_determinism_same_seed(self):
        def run_once(seed):
            db = ObjectDatabase(scheduler=PageLocking2PL())
            oid = db.create(Keyed)
            programs = [
                writer_program(f"T{i}", oid, f"k{i % 2}", i, think=1)
                for i in range(4)
            ]
            result = InterleavedExecutor(db, seed=seed).run(programs)
            return (
                result.makespan,
                result.total_restarts,
                sorted(result.committed_labels),
            )

        assert run_once(11) == run_once(11)

    def test_different_seeds_vary_interleavings(self):
        # the seed shuffles the within-round execution order, so traces
        # (the seq order of primitive actions) differ across seeds
        def trace(seed):
            db = ObjectDatabase(scheduler=PageLocking2PL())
            oid = db.create(Keyed)
            programs = [
                writer_program(f"T{i}", oid, f"k{i}", i, think=3) for i in range(4)
            ]
            InterleavedExecutor(db, seed=seed).run(programs)
            primitives = sorted(
                (a for a in db.system.all_actions() if a.is_primitive),
                key=lambda a: (a.seq, a.aid),
            )
            return tuple((a.top, a.aid) for a in primitives)

        traces = {trace(seed) for seed in range(6)}
        assert len(traces) > 1

    def test_2pl_blocks_but_completes(self):
        db = ObjectDatabase(scheduler=PageLocking2PL())
        oid = db.create(Keyed)
        programs = [writer_program(f"T{i}", oid, f"k{i}", i, think=2) for i in range(4)]
        result = InterleavedExecutor(db, seed=1).run(programs)
        assert result.all_committed
        assert db.scheduler.stats["waits"] > 0  # same page: writers queue

    def test_deadlock_victims_restart_and_finish(self):
        db = ObjectDatabase(scheduler=PageLocking2PL())
        a = db.create(Keyed, oid="A")
        b = db.create(Keyed, oid="B")

        def crosser(label, first, second):
            def body(api):
                api.send(first, "put", "x", label)
                api.work(4)
                api.send(second, "put", "x", label)

            return TransactionProgram(label, body)

        programs = [crosser("T1", a, b), crosser("T2", b, a)]
        result = InterleavedExecutor(db, seed=0).run(programs)
        assert result.all_committed
        assert result.total_restarts >= 1
        assert db.scheduler.stats["deadlocks"] >= 1

    def test_worker_error_is_surfaced_and_locks_released(self):
        db = ObjectDatabase(scheduler=PageLocking2PL())
        oid = db.create(Keyed)

        def buggy(api):
            api.send(oid, "put", "k", 1)
            raise ValueError("application bug")

        programs = [
            TransactionProgram("BUG", buggy),
            writer_program("OK", oid, "other", 2, think=1),
        ]
        with pytest.raises(ValueError, match="application bug"):
            InterleavedExecutor(db, seed=0).run(programs)
        # the buggy transaction's locks were released by the forced abort;
        # the healthy transaction committed and released too
        assert db.scheduler.table.lock_count == 0

    def test_wait_ticks_accounted(self):
        db = ObjectDatabase(scheduler=PageLocking2PL())
        oid = db.create(Keyed)
        programs = [
            writer_program("T1", oid, "a", 1, think=5),
            writer_program("T2", oid, "b", 2, think=5),
        ]
        result = InterleavedExecutor(db, seed=2).run(programs)
        total_waits = sum(
            o.final_ctx.stats.wait_ticks for o in result.committed if o.final_ctx
        )
        assert total_waits > 0


class TestEndStateConsistency:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_accounts_conserve_money(self, seed):
        db = ObjectDatabase(scheduler=OpenNestedLocking())
        accounts = [db.create(Account, 100.0) for _ in range(4)]

        def transfer(label, src, dst, amount):
            def body(api):
                api.send(src, "withdraw", amount)
                api.work(2)
                api.send(dst, "deposit", amount)

            return TransactionProgram(label, body)

        programs = [
            transfer(f"X{i}", accounts[i % 4], accounts[(i + 1) % 4], 10)
            for i in range(8)
        ]
        result = InterleavedExecutor(db, seed=seed).run(programs)
        assert result.all_committed
        ctx = db.begin()
        total = sum(db.send(ctx, acct, "balance") for acct in accounts)
        db.commit(ctx)
        assert total == 400.0

    @pytest.mark.parametrize("seed", [0, 5])
    def test_encyclopedia_under_contention(self, seed):
        db = ObjectDatabase(scheduler=OpenNestedLocking(), page_capacity=64)
        enc = build_encyclopedia(db, order=4)

        def inserter(i):
            def body(api):
                api.send(enc, "insertItem", f"key{i:02d}", i)

            return TransactionProgram(f"I{i}", body)

        result = InterleavedExecutor(db, seed=seed).run(
            [inserter(i) for i in range(8)]
        )
        assert result.all_committed
        ctx = db.begin()
        assert db.send(ctx, enc, "length") == 8
        for i in range(8):
            assert db.send(ctx, enc, "search", f"key{i:02d}") == i
        db.commit(ctx)
