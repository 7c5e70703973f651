"""Property tests for rollback ordering and delta-aware undo.

Satellites of the crash-recovery work: (1) a top-level abort consumes the
frame journal strictly in reverse chronological order — any other order
restores stale before-images when one slot is written repeatedly; (2)
:meth:`UndoRecord.resolve` removes exactly the forward delta when later
commuting writers moved a slot past the journaled after-image, and
degrades to the exact absolute restore when nothing interleaved.
"""

import random

import pytest

from repro.core.commutativity import MatrixCommutativity
from repro.locking import OpenNestedLocking
from repro.oodb import DatabaseObject, ObjectDatabase, dbmethod
from repro.oodb.log import DELETED, FrameLog, UndoRecord
from repro.oodb.pages import PageStore


class Scratch(DatabaseObject):
    """Raw slot access: every write journals an UndoRecord (no comps)."""

    commutativity = MatrixCommutativity({("scribble", "scribble"): False})

    def setup(self):
        pass

    @dbmethod(update=True)
    def scribble(self, writes):
        for slot, value in writes:
            self.data[slot] = value


def snapshot(store):
    return {
        page_id: dict(store.get(page_id).slots) for page_id in store.page_ids
    }


class TestReverseChronologicalRollback:
    @pytest.mark.parametrize("seed", range(6))
    def test_abort_restores_exact_prior_state(self, seed):
        """Randomized repeated writes to few slots; only strictly
        reverse-chronological undo can reproduce the pre-transaction state."""
        rng = random.Random(seed)
        db = ObjectDatabase(scheduler=OpenNestedLocking(), page_capacity=32)
        oid = db.create(Scratch, oid="S")
        before = snapshot(db.store)

        ctx = db.begin("T")
        for _ in range(rng.randrange(2, 6)):
            writes = [
                (f"s{rng.randrange(3)}", rng.randrange(100))
                for _ in range(rng.randrange(1, 8))
            ]
            db.send(ctx, oid, "scribble", writes)
        db.abort(ctx)
        assert snapshot(db.store) == before

    def test_journal_preserves_chronology_across_merges(self):
        parent, child = FrameLog(), FrameLog()
        parent.record(UndoRecord("P", "a", True, 1, after=2))
        child.record(UndoRecord("P", "a", True, 2, after=3))
        child.record(UndoRecord("P", "b", False, None, after=0))
        parent.merge_child(child)
        parent.record(UndoRecord("P", "a", True, 3, after=4))
        assert [getattr(e, "before", None) for e in parent.entries] == [1, 2, None, 3]
        assert child.is_empty


class TestDeltaAwareUndo:
    def _store(self, **slots):
        store = PageStore(16)
        page = store.allocate("P")
        page.slots.update(slots)
        return store

    def test_exact_restore_when_untouched(self):
        store = self._store(total=8)
        rec = UndoRecord("P", "total", True, 5, after=8)
        assert rec.resolve(store) == ("set", 5)
        rec.apply(store)
        assert store.get("P").read("total") == 5

    def test_delta_when_commuting_writer_interleaved(self):
        # forward: 5 -> 8 (+3); interloper: 8 -> 12 (+4); undo must yield 9
        store = self._store(total=12)
        rec = UndoRecord("P", "total", True, 5, after=8)
        assert rec.resolve(store) == ("set", 9)

    def test_undo_of_delete_restores_before(self):
        store = self._store()
        rec = UndoRecord("P", "total", True, 5, after=DELETED)
        rec.apply(store)
        assert store.get("P").read("total") == 5

    def test_created_slot_removed_when_untouched(self):
        store = self._store(fresh=3)
        rec = UndoRecord("P", "fresh", False, None, after=3)
        assert rec.resolve(store) == ("del", None)
        rec.apply(store)
        assert not store.get("P").has("fresh")

    def test_created_slot_keeps_interloper_delta(self):
        # forward created 3; interloper added 2 on top; undo leaves the 2
        store = self._store(fresh=5)
        rec = UndoRecord("P", "fresh", False, None, after=3)
        assert rec.resolve(store) == ("set", 2)

    def test_non_numeric_interference_falls_back_to_absolute(self):
        store = self._store(name="interloper")
        rec = UndoRecord("P", "name", True, "original", after="forward")
        assert rec.resolve(store) == ("set", "original")

    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_undo_converges_in_any_order(self, seed):
        """Two commuting forward writes to one slot, undone in either
        order, converge to the original value — the property that keeps
        concurrent rollbacks and crash recovery sound."""
        rng = random.Random(seed)
        start = rng.randrange(10)
        d1, d2 = rng.randrange(1, 5), rng.randrange(1, 5)
        # forward history: start -> start+d1 -> start+d1+d2
        rec1 = UndoRecord("P", "t", True, start, after=start + d1)
        rec2 = UndoRecord("P", "t", True, start + d1, after=start + d1 + d2)
        for order in ([rec1, rec2], [rec2, rec1]):
            store = self._store(t=start + d1 + d2)
            for rec in order:
                rec.apply(store)
            assert store.get("P").read("t") == start
