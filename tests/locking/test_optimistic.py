"""Unit and behavioural tests for the optimistic certifier."""

import pytest

from repro.core.commutativity import MatrixCommutativity
from repro.core.transactions import TransactionSystem
from repro.errors import TransactionAborted
from repro.locking import OptimisticCertifier
from repro.oodb import DatabaseObject, ObjectDatabase, dbmethod
from repro.runtime import InterleavedExecutor, TransactionProgram


class Register(DatabaseObject):
    """A single value: get/get commutes, everything else conflicts."""

    commutativity = MatrixCommutativity({("get", "get"): True})

    def setup(self, initial=0):
        self.data["v"] = initial

    @dbmethod
    def get(self):
        return self.data["v"]

    @dbmethod(update=True, compensation=lambda args, result: ("set", (result,)))
    def set(self, value):
        old = self.data["v"]
        self.data["v"] = value
        return old


def test_reads_never_block_on_uncommitted_writes():
    """Readers proceed optimistically past a held write lock."""
    db = ObjectDatabase(scheduler=OptimisticCertifier())
    reg = db.create(Register)
    t1 = db.begin("T1")
    db.send(t1, reg, "set", 1)  # write lock held until T1 commits
    t2 = db.begin("T2")
    assert db.send(t2, reg, "get") == 1  # a locking protocol would block
    db.commit(t2)
    db.commit(t1)
    assert db.scheduler.stats["validations"] == 2
    assert db.scheduler.stats["validation_failures"] == 0


def test_conflicting_writes_still_lock():
    """Writes keep open-nested semantic locks: no dirty writes, so
    compensation stays sound."""
    db = ObjectDatabase(scheduler=OptimisticCertifier())
    reg = db.create(Register)
    t1 = db.begin("T1")
    db.send(t1, reg, "set", 1)
    t2 = db.begin("T2")
    with pytest.raises(TransactionAborted):  # would block; no executor
        db.send(t2, reg, "set", 2)


def test_validation_rejects_inconsistent_reads():
    """A transaction whose reads contradict the committed order aborts."""
    db = ObjectDatabase(scheduler=OptimisticCertifier())
    a = db.create(Register, 0, oid="A")
    b = db.create(Register, 0, oid="B")
    t1 = db.begin("T1")
    t2 = db.begin("T2")
    db.send(t1, a, "get")      # T1 reads a before T2 writes it: T1 < T2
    db.send(t2, b, "get")      # T2 reads b before T1 writes it: T2 < T1
    db.send(t1, b, "set", 4)
    db.send(t2, a, "set", 3)
    db.commit(t2)
    with pytest.raises(TransactionAborted):
        db.commit(t1)
    assert db.scheduler.stats["validation_failures"] == 1


def test_aborted_validation_rolls_back():
    db = ObjectDatabase(scheduler=OptimisticCertifier())
    a = db.create(Register, 0, oid="A")
    b = db.create(Register, 0, oid="B")
    t1 = db.begin("T1")
    t2 = db.begin("T2")
    db.send(t1, a, "get")
    db.send(t2, b, "get")
    db.send(t1, b, "set", 4)
    db.send(t2, a, "set", 3)
    db.commit(t2)
    try:
        db.commit(t1)
    except TransactionAborted:
        db.abort(t1)
    check = db.begin("chk")
    assert db.send(check, a, "get") == 3  # T2's committed write survives
    assert db.send(check, b, "get") == 0  # T1's write compensated away
    db.commit(check)


def test_executor_restarts_validation_victims():
    db = ObjectDatabase(scheduler=OptimisticCertifier())
    reg = db.create(Register)

    def bump(api):
        value = api.send(reg, "get")
        api.work(2)
        api.send(reg, "set", value + 1)

    programs = [TransactionProgram(f"T{i}", bump) for i in range(4)]
    result = InterleavedExecutor(db, seed=5).run(programs)
    assert result.all_committed
    ctx = db.begin()
    # every committed increment took effect exactly once (lost updates
    # would make the final value smaller)
    assert db.send(ctx, reg, "get") == 4
    db.commit(ctx)


def test_page_level_integrity_still_enforced():
    """Short page locks keep method bursts atomic even optimistically."""
    db = ObjectDatabase(scheduler=OptimisticCertifier(), page_capacity=64)
    from repro.structures import build_encyclopedia

    enc = build_encyclopedia(db, order=4)

    def inserter(i):
        def body(api):
            api.send(enc, "insertItem", f"k{i}", i)

        return body

    result = InterleavedExecutor(db, seed=2).run(
        [TransactionProgram(f"I{i}", inserter(i)) for i in range(6)]
    )
    assert result.all_committed
    from repro.structures.verify import verify_encyclopedia

    assert verify_encyclopedia(db, enc).ok


def test_cached_validation_makes_no_pass_over_the_trace(monkeypatch):
    """Once the judge is warm, validating a commit extends it with the
    context's own tree: no copy or scan of every tree the database ran."""
    db = ObjectDatabase(scheduler=OptimisticCertifier())
    reg = db.create(Register)
    for label, value in (("T1", 1), ("T2", 2)):
        ctx = db.begin(label)
        db.send(ctx, reg, "set", value)
        db.commit(ctx)
    assert db.scheduler._judge is not None  # the judge is warm

    def no_scan(system):
        raise AssertionError("validation read TransactionSystem.tops")

    t3 = db.begin("T3")
    db.send(t3, reg, "get")
    with monkeypatch.context() as patch:
        patch.setattr(TransactionSystem, "tops", property(no_scan))
        db.commit(t3)
    assert db.scheduler.stats["validations"] == 3
    assert db.scheduler.stats["validation_failures"] == 0
