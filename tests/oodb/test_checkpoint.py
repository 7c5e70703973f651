"""Fuzzy checkpoints and durable (from-checkpoint) recovery."""

import pytest

from repro.core.commutativity import MatrixCommutativity
from repro.errors import DatabaseError
from repro.locking import OpenNestedLocking, PageLocking2PL
from repro.oodb import DatabaseObject, ObjectDatabase, dbmethod
from repro.oodb.store import FileBackedPageStore
from repro.oodb.wal import WriteAheadLog, recover, store_digest


class Counter(DatabaseObject):
    commutativity = MatrixCommutativity(
        {
            ("add", "add"): True,
            ("read", "add"): False,
            ("read", "read"): True,
        }
    )

    def setup(self):
        self.data["total"] = 0

    @dbmethod(update=True, compensation=lambda args, result: ("add", (-args[0],)))
    def add(self, n):
        self.data["total"] = self.data.get("total", 0) + n

    @dbmethod
    def read(self):
        return self.data.get("total", 0)


def build_durable(root, frames=4, checkpoint_every=None, scheduler=None):
    wal = WriteAheadLog()
    store = FileBackedPageStore(str(root), frames=frames, default_capacity=16)
    db = ObjectDatabase(
        scheduler=scheduler or OpenNestedLocking(),
        page_capacity=16,
        wal=wal,
        store=store,
        checkpoint_every=checkpoint_every,
    )
    oid = db.create(Counter, oid="C")
    return db, wal, oid


def rebuild():
    """A recovery database with the identical deterministic bootstrap."""
    db = ObjectDatabase(page_capacity=16)
    db.create(Counter, oid="C")
    return db


def run_txns(db, oid, n, start=0):
    for i in range(start, start + n):
        ctx = db.begin(f"T{i}")
        db.send(ctx, oid, "add", i + 1)
        db.commit(ctx)


class TestCheckpoint:
    def test_checkpoint_emits_begin_and_end_with_att_and_dpt(self, tmp_path):
        db, wal, oid = build_durable(tmp_path)
        run_txns(db, oid, 2)
        end_lsn = db.checkpoint()
        records = wal.to_list()
        end = records[end_lsn]
        assert end["t"] == "ckpt-end"
        begin = records[end["begin"]]
        assert begin["t"] == "ckpt-begin"
        assert "att" in end and "dpt" in end
        assert wal.durable_checkpoint() == end

    def test_automatic_checkpoint_honors_the_interval(self, tmp_path):
        db, wal, oid = build_durable(tmp_path, checkpoint_every=10)
        run_txns(db, oid, 8)
        kinds = [r["t"] for r in wal.to_list()]
        assert kinds.count("ckpt-end") >= 2

    def test_in_memory_database_never_checkpoints(self):
        wal = WriteAheadLog()
        db = ObjectDatabase(
            scheduler=OpenNestedLocking(), page_capacity=16, wal=wal
        )
        oid = db.create(Counter, oid="C")
        run_txns(db, oid, 2)
        assert db.checkpoint() is None
        assert all(r["t"] != "ckpt-begin" for r in wal.to_list())


class TestDurableRecovery:
    def test_recovery_resumes_from_checkpoint_with_conditional_redo(
        self, tmp_path
    ):
        db, wal, oid = build_durable(tmp_path)
        run_txns(db, oid, 4)
        db.checkpoint()  # flushes dirty pages too
        ckpt_lsn = len(wal.records)
        run_txns(db, oid, 2, start=4)
        loser = db.begin("L")
        db.send(loser, oid, "add", 100)
        wal.crash()
        db.store.crash()

        recovery_db = rebuild()
        fresh = FileBackedPageStore(str(tmp_path), frames=4, default_capacity=16)
        report = recover(wal, recovery_db, store=fresh)
        assert report.winners == [f"T{i}" for i in range(6)]
        assert "L" in report.losers
        # redo never revisits the checkpointed prefix
        assert 0 < report.redo_applied < ckpt_lsn
        total = sum(range(1, 7))
        assert recovery_db.store.get("Page4701").read("total") == total

    def test_durable_digest_matches_in_memory_genesis_recovery(self, tmp_path):
        db, wal, oid = build_durable(tmp_path)
        run_txns(db, oid, 3)
        db.checkpoint()
        run_txns(db, oid, 2, start=3)
        pre_crash = wal.to_list()
        wal.crash()
        db.store.crash()

        durable_db = rebuild()
        fresh = FileBackedPageStore(str(tmp_path), frames=4, default_capacity=16)
        recover(wal, durable_db, store=fresh)

        memory_db = rebuild()
        recover(WriteAheadLog.from_records(pre_crash), memory_db)
        assert store_digest(durable_db.store) == store_digest(memory_db.store)

    def test_double_recover_is_idempotent_over_the_data_dir(self, tmp_path):
        db, wal, oid = build_durable(tmp_path, checkpoint_every=12)
        run_txns(db, oid, 5)
        loser = db.begin("L")
        db.send(loser, oid, "add", 50)
        wal.crash()
        db.store.crash()

        first_db = rebuild()
        first = recover(
            wal,
            first_db,
            store=FileBackedPageStore(str(tmp_path), frames=4, default_capacity=16),
        )
        first_digest = store_digest(first_db.store)

        second_db = rebuild()
        second = recover(
            wal,
            second_db,
            store=FileBackedPageStore(str(tmp_path), frames=4, default_capacity=16),
        )
        assert store_digest(second_db.store) == first_digest
        # the post-recovery checkpoint fenced redo: nothing to reapply
        assert second.redo_applied == 0
        assert second.losers == []


def test_an_undo_entry_without_an_after_image_is_refused(tmp_path):
    """A checkpointed undo entry carrying neither ``after`` nor ``deleted``
    cannot be undone safely; recovery names its LSN instead of guessing."""
    # page 2PL journals before-images, so the loser's entry is an undo
    db, wal, oid = build_durable(tmp_path, scheduler=PageLocking2PL())
    run_txns(db, oid, 1)
    loser = db.begin("L")
    db.send(loser, oid, "add", 100)
    db.checkpoint()
    records = wal.to_list()
    end = next(r for r in reversed(records) if r["t"] == "ckpt-end")
    (_, entry), *_ = end["att"]["journals"]["L"]
    assert entry["k"] == "undo"
    entry.pop("after")
    wal.crash()
    db.store.crash()

    fresh = FileBackedPageStore(str(tmp_path), frames=4, default_capacity=16)
    with pytest.raises(DatabaseError, match=f"LSN {entry['lsn']}"):
        recover(WriteAheadLog.from_records(records), rebuild(), store=fresh)
