"""Tests for the trace projection and VODAK-style type inheritance."""

import pytest

from repro.core.commutativity import MatrixCommutativity
from repro.errors import UnknownMethodError
from repro.oodb import DatabaseObject, ObjectDatabase, dbmethod
from repro.oodb.trace import analyze_committed, committed_projection
from repro.runtime import InterleavedExecutor, TransactionProgram


class Store(DatabaseObject):
    commutativity = MatrixCommutativity(
        {
            ("get", "get"): True,
            ("get", "put"): lambda a, b: a.args[0] != b.args[0],
            ("put", "put"): lambda a, b: a.args[0] != b.args[0],
        }
    )

    def setup(self):
        pass

    @dbmethod
    def get(self, key):
        return self.data.get(key)

    @dbmethod(update=True)
    def put(self, key, value):
        self.data[key] = value


class VersionedStore(Store):
    """Inherits structure and operations; adds a versioned read.

    The VODAK modeling language "supports inheritance of structure,
    operations and values" — the method table and the commutativity
    specification flow down the MRO unless overridden.
    """

    @dbmethod
    def get_with_version(self, key):
        return (self.data.get(key), self.data.get(("v", key), 0))

    @dbmethod(update=True)
    def put(self, key, value):  # override: bump a version slot too
        self.data[key] = value
        self.data[("v", key)] = self.data.get(("v", key), 0) + 1


class TestInheritance:
    def test_methods_inherited(self):
        db = ObjectDatabase()
        oid = db.create(VersionedStore)
        ctx = db.begin()
        db.send(ctx, oid, "put", "k", 1)  # overridden variant
        assert db.send(ctx, oid, "get", "k") == 1  # inherited
        assert db.send(ctx, oid, "get_with_version", "k") == (1, 1)
        db.commit(ctx)

    def test_override_replaces_base_method(self):
        specs = VersionedStore.method_specs()
        assert specs["put"].func.__qualname__.startswith("VersionedStore")
        assert specs["get"].func.__qualname__.startswith("Store")

    def test_dispatch_table_is_cached_per_class_not_inherited(self):
        # Parent first, so a cache that leaked down the MRO would hide the
        # subclass's own method.
        assert Store.method_spec("put").func.__qualname__.startswith("Store")
        spec = VersionedStore.method_spec("get_with_version")
        assert spec is VersionedStore.method_spec("get_with_version")
        assert VersionedStore.method_spec("put").func.__qualname__.startswith(
            "VersionedStore"
        )
        assert Store.__dict__["_method_spec_table"].keys() == {"get", "put"}
        assert (
            VersionedStore.__dict__["_method_spec_table"]
            is not Store.__dict__["_method_spec_table"]
        )
        with pytest.raises(UnknownMethodError):
            Store.method_spec("get_with_version")
        with pytest.raises(UnknownMethodError):
            VersionedStore.method_spec("drop")

    def test_commutativity_inherited(self):
        assert VersionedStore.commutativity is Store.commutativity

    def test_subclass_can_refine_commutativity(self):
        class StrictStore(Store):
            commutativity = MatrixCommutativity({})  # everything conflicts

        db = ObjectDatabase()
        oid = db.create(StrictStore)
        registry = db.commutativity_registry()
        assert registry.for_object(oid) is StrictStore.commutativity


class TestCommittedProjection:
    def _run_with_giveup(self):
        """A run where one transaction aborts and never retries."""
        from repro.errors import TransactionAborted

        db = ObjectDatabase()
        oid = db.create(Store)

        def good(api):
            api.send(oid, "put", "ok", 1)

        def doomed(api):
            api.send(oid, "put", "bad", 1)
            raise TransactionAborted(api.txn_id, "forced")

        programs = [
            TransactionProgram("GOOD", good),
            TransactionProgram("DOOMED", doomed, max_restarts=0),
        ]
        result = InterleavedExecutor(db, seed=0).run(programs)
        return db, result

    def test_projection_excludes_aborted(self):
        db, result = self._run_with_giveup()
        assert result.committed_labels == {"GOOD"}
        projection = committed_projection(db.system, result.committed_labels)
        assert [t.label for t in projection.tops] == ["GOOD"]
        assert all(a.top == "GOOD" for a in projection.all_actions())

    def test_projection_shares_nodes(self):
        db, result = self._run_with_giveup()
        projection = committed_projection(db.system, {"GOOD"})
        original = next(t for t in db.system.tops if t.label == "GOOD")
        assert projection.tops[0] is original

    def test_analyze_committed_clean(self):
        db, result = self._run_with_giveup()
        verdict, schedules = analyze_committed(result)
        assert verdict.oo_serializable
        # the aborted transaction's actions are invisible to the analysis
        for sched in schedules.values():
            assert all(a.top == "GOOD" for a in sched.actions)

    def test_projection_declares_all_objects(self):
        db, result = self._run_with_giveup()
        projection = committed_projection(db.system, {"GOOD"})
        assert db.system.objects <= projection.objects
