"""Unit tests for method specs, frame logs and transaction contexts."""

import pytest

from repro.oodb.context import Frame, TransactionContext, TxnStatus
from repro.oodb.log import (
    CompensationRecord,
    FrameLog,
    PageAllocationRecord,
    UndoRecord,
)
from repro.oodb.method import dbmethod
from repro.oodb.pages import PageStore
from repro.core.transactions import TransactionSystem


class TestDbMethod:
    def test_bare_decorator_marks_read(self):
        @dbmethod
        def lookup(self, key):
            pass

        spec = lookup.__dbmethod__
        assert spec.name == "lookup"
        assert not spec.update
        assert spec.compensation is None
        assert spec.compensation_call(("k",), None) is None

    def test_update_flag(self):
        @dbmethod(update=True)
        def mutate(self):
            pass

        assert mutate.__dbmethod__.update

    def test_named_compensation(self):
        @dbmethod(compensation="withdraw")
        def deposit(self, amount):
            pass

        spec = deposit.__dbmethod__
        assert spec.update  # compensation implies update
        assert spec.compensation_call((10,), None) == ("withdraw", (10,))

    def test_callable_compensation_uses_result(self):
        @dbmethod(compensation=lambda args, result: ("restore", (result,)))
        def change(self, text):
            pass

        spec = change.__dbmethod__
        assert spec.compensation_call(("new",), "old") == ("restore", ("old",))

    def test_callable_compensation_may_decline(self):
        @dbmethod(
            compensation=lambda args, result: None if result is None else ("undo", args)
        )
        def maybe(self, key):
            pass

        spec = maybe.__dbmethod__
        assert spec.compensation_call(("k",), None) is None
        assert spec.compensation_call(("k",), 1) == ("undo", ("k",))


class TestUndoRecords:
    def test_undo_restores_before_image(self):
        store = PageStore()
        page = store.allocate("P")
        page.write("slot", "old")
        record = UndoRecord(
            "P", "slot", had_slot=True, before="old", after="new"
        )
        page.write("slot", "new")
        record.apply(store)
        assert page.read("slot") == "old"

    def test_undo_removes_created_slot(self):
        store = PageStore()
        page = store.allocate("P")
        record = UndoRecord(
            "P", "slot", had_slot=False, before=None, after="new"
        )
        page.write("slot", "new")
        record.apply(store)
        assert not page.has("slot")

    def test_page_allocation_record_deallocates(self):
        store = PageStore()
        store.allocate("P")
        PageAllocationRecord("P").apply(store)
        assert "P" not in store
        # idempotent on re-apply
        PageAllocationRecord("P").apply(store)


class TestFrameLog:
    def test_chronological_merge(self):
        parent = FrameLog()
        child = FrameLog()
        parent.record(UndoRecord("P", "a", True, 1, after=2))
        child.record(CompensationRecord("O", "undo", ()))
        parent.merge_child(child)
        assert len(parent) == 2
        assert isinstance(parent.entries[-1], CompensationRecord)
        assert child.is_empty

    def test_filters(self):
        log = FrameLog()
        log.record(UndoRecord("P", "a", True, 1, after=2))
        log.record(CompensationRecord("O", "undo", ()))
        assert len(log.undo_entries) == 1
        assert len(log.compensations) == 1

    def test_compensation_record_str(self):
        record = CompensationRecord("Box1", "erase", ("k",))
        assert "Box1.erase('k')" in str(record)


class TestTransactionContext:
    def _ctx(self):
        system = TransactionSystem()
        return TransactionContext(system.transaction("T1"))

    def test_initial_state(self):
        ctx = self._ctx()
        assert ctx.is_active
        assert ctx.status is TxnStatus.ACTIVE
        assert ctx.depth == 0
        assert ctx.current_frame is ctx.root_frame

    def test_push_pop(self):
        ctx = self._ctx()
        frame = Frame(node=ctx.txn.root.call("O", "m"))
        ctx.push(frame)
        assert ctx.depth == 1
        assert ctx.current_frame is frame
        assert ctx.pop() is frame
        assert ctx.depth == 0

    def test_cannot_pop_root(self):
        ctx = self._ctx()
        with pytest.raises(RuntimeError):
            ctx.pop()

    def test_txn_id(self):
        assert self._ctx().txn_id == "T1"
