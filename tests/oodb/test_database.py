"""Unit tests for the object database: dispatch, tracing, encapsulation,
undo and compensation."""

import pytest

from repro.core.commutativity import MatrixCommutativity
from repro.errors import (
    DatabaseError,
    EncapsulationError,
    TransactionAborted,
    UnknownMethodError,
    UnknownObjectError,
)
from repro.locking import OpenNestedLocking
from repro.oodb import DatabaseObject, ObjectDatabase, dbmethod


class Box(DatabaseObject):
    """A tiny keyed container used throughout these tests."""

    commutativity = MatrixCommutativity(
        {
            ("get", "get"): True,
            ("get", "put"): lambda a, b: a.args[0] != b.args[0],
            ("put", "put"): lambda a, b: a.args[0] != b.args[0],
        }
    )

    def setup(self, initial=()):
        for key, value in initial:
            self.data[key] = value

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

    @dbmethod(update=True)
    def fill_from(self, other_oid, key):
        value = self.call(other_oid, "get", key)
        self.data[key] = value
        return value

    @dbmethod(update=True)
    def spawn(self, key):
        child = self.db_create(Box, ((key, "fresh"),))
        self.data[key] = child
        return child

    @dbmethod
    def peek_other(self, other_oid, key):
        other = self._db.get_object(other_oid)
        return other.data.get(key)  # encapsulation violation!

    @dbmethod(update=True)
    def boom(self, key, value):
        self.data[key] = value
        raise TransactionAborted(self._db._current_ctx().txn_id, "boom")


@pytest.fixture
def db():
    return ObjectDatabase(page_capacity=32)


class TestCreateAndDispatch:
    def test_create_assigns_sequential_oids(self, db):
        assert db.create(Box) == "Box1"
        assert db.create(Box) == "Box2"
        assert db.has_object("Box1")
        assert set(db.object_ids) == {"Box1", "Box2"}

    def test_create_explicit_oid(self, db):
        assert db.create(Box, oid="Lunchbox") == "Lunchbox"
        with pytest.raises(DatabaseError):
            db.create(Box, oid="Lunchbox")

    def test_create_rejects_non_database_object(self, db):
        with pytest.raises(EncapsulationError):
            db.create(dict)  # type: ignore[arg-type]

    def test_setup_args(self, db):
        oid = db.create(Box, (("a", 1),))
        ctx = db.begin()
        assert db.send(ctx, oid, "get", "a") == 1
        db.commit(ctx)

    def test_send_and_commit(self, db):
        oid = db.create(Box)
        ctx = db.begin("T1")
        db.send(ctx, oid, "put", "k", "v")
        assert db.send(ctx, oid, "get", "k") == "v"
        db.commit(ctx)
        assert not ctx.is_active

    def test_unknown_object_and_method(self, db):
        oid = db.create(Box)
        ctx = db.begin()
        with pytest.raises(UnknownObjectError):
            db.send(ctx, "nope", "get", "k")
        with pytest.raises(UnknownMethodError):
            db.send(ctx, oid, "explode")

    def test_send_after_commit_rejected(self, db):
        oid = db.create(Box)
        ctx = db.begin()
        db.commit(ctx)
        with pytest.raises(TransactionAborted):
            db.send(ctx, oid, "get", "k")

    def test_nested_send_traces_call_tree(self, db):
        a = db.create(Box, (("k", "from-a"),))
        b = db.create(Box)
        ctx = db.begin("T1")
        db.send(ctx, b, "fill_from", a, "k")
        db.commit(ctx)
        root = ctx.txn.root
        (fill,) = root.children
        assert fill.obj == b and fill.method == "fill_from"
        called_objects = [child.obj for child in fill.children]
        assert a in called_objects  # the nested get
        # page accesses are primitive children
        get_node = next(c for c in fill.children if c.obj == a)
        assert any(n.method == "read" for n in get_node.children)

    def test_create_inside_transaction(self, db):
        parent = db.create(Box)
        ctx = db.begin()
        child = db.send(ctx, parent, "spawn", "kid")
        db.commit(ctx)
        assert db.has_object(child)
        ctx2 = db.begin()
        assert db.send(ctx2, child, "get", "kid") == "fresh"
        db.commit(ctx2)

    def test_create_during_transaction_via_db_create_only(self, db):
        db.create(Box)
        ctx = db.begin()
        db._local.ctx = ctx
        try:
            with pytest.raises(DatabaseError):
                db.create(Box)
        finally:
            db._local.ctx = None

    def test_two_contexts_on_one_thread_rejected(self, db):
        oid = db.create(Box)
        ctx1 = db.begin("T1")
        ctx2 = db.begin("T2")
        db._local.ctx = ctx1
        try:
            with pytest.raises(DatabaseError):
                db.send(ctx2, oid, "get", "k")
        finally:
            db._local.ctx = None


class TestEncapsulation:
    def test_state_inaccessible_outside_methods(self, db):
        oid = db.create(Box)
        obj = db.get_object(oid)
        with pytest.raises(EncapsulationError):
            obj.data["k"]

    def test_state_inaccessible_from_other_objects_methods(self, db):
        a = db.create(Box, (("k", 1),))
        b = db.create(Box)
        ctx = db.begin()
        with pytest.raises(EncapsulationError):
            db.send(ctx, b, "peek_other", a, "k")

    def test_setup_may_touch_own_state(self, db):
        # implicitly covered by create(); explicit regression guard:
        oid = db.create(Box, (("x", 1),))
        assert db.store.get(db.get_object(oid).page_id).read("x") == 1


class TestUndoAndCompensation:
    def test_abort_undoes_page_writes(self, db):
        oid = db.create(Box, (("k", "old"),))
        ctx = db.begin()
        db.send(ctx, oid, "put", "k", "new")
        db.abort(ctx)
        ctx2 = db.begin()
        assert db.send(ctx2, oid, "get", "k") == "old"

    def test_abort_removes_fresh_slots(self, db):
        oid = db.create(Box)
        ctx = db.begin()
        db.send(ctx, oid, "put", "fresh", 1)
        db.abort(ctx)
        ctx2 = db.begin()
        assert db.send(ctx2, oid, "get", "fresh") is None

    def test_abort_deallocates_created_objects_page(self, db):
        parent = db.create(Box)
        ctx = db.begin()
        child = db.send(ctx, parent, "spawn", "kid")
        child_page = db.get_object(child).page_id
        db.abort(ctx)
        assert child_page not in db.store

    def test_abort_is_idempotent(self, db):
        oid = db.create(Box)
        ctx = db.begin()
        db.send(ctx, oid, "put", "k", 1)
        db.abort(ctx)
        db.abort(ctx)  # second abort is a no-op
        assert not ctx.is_active

    def test_exception_inside_method_keeps_log_for_abort(self, db):
        oid = db.create(Box, (("k", "old"),))
        ctx = db.begin()
        with pytest.raises(TransactionAborted):
            db.send(ctx, oid, "boom", "k", "dirty")
        db.abort(ctx)
        ctx2 = db.begin()
        assert db.send(ctx2, oid, "get", "k") == "old"

    def test_open_nested_abort_compensates(self):
        db = ObjectDatabase(scheduler=OpenNestedLocking(), page_capacity=32)
        oid = db.create(Box, (("k", "old"),))
        ctx = db.begin()
        db.send(ctx, oid, "put", "k", "new")
        db.send(ctx, oid, "put", "extra", 1)
        db.abort(ctx)
        ctx2 = db.begin()
        assert db.send(ctx2, oid, "get", "k") == "old"
        assert db.send(ctx2, oid, "get", "extra") is None
        db.commit(ctx2)

    def test_commit_inside_method_rejected(self, db):
        oid = db.create(Box)
        ctx = db.begin()
        ctx.push(ctx.current_frame)  # simulate an open frame
        with pytest.raises(DatabaseError):
            db.commit(ctx)


class TestAnalysisBridge:
    def test_registry_covers_objects_and_pages(self, db):
        oid = db.create(Box)
        registry = db.commutativity_registry()
        assert registry.for_object(oid) is Box.commutativity
        page_id = db.get_object(oid).page_id
        spec = registry.for_object(page_id)
        from repro.core.commutativity import ReadWriteCommutativity

        assert isinstance(spec, ReadWriteCommutativity)

    def test_one_registry_for_the_life_of_the_database(self, db):
        """A created object registers on the registry already handed out,
        nested creations included: a judge holding it never goes stale."""
        parent = db.create(Box)
        registry = db.commutativity_registry()
        ctx = db.begin()
        child = db.send(ctx, parent, "spawn", "kid")
        db.commit(ctx)
        later = db.create(Box)
        assert db.commutativity_registry() is registry
        assert registry.for_object(child) is Box.commutativity
        assert registry.for_object(later) is Box.commutativity
        page_id = db.get_object(child).page_id
        assert registry.for_object(page_id) is registry.for_object(
            db.get_object(parent).page_id
        )

    def test_analyze_serial_run_is_serializable(self, db):
        oid = db.create(Box)
        for label in ("T1", "T2"):
            ctx = db.begin(label)
            db.send(ctx, oid, "put", label, 1)
            db.commit(ctx)
        verdict, schedules = db.analyze()
        assert verdict.oo_serializable
        assert oid in schedules
