"""Tests for metrics, conflict statistics and reporting."""

import functools

from repro.analysis import (
    RunMetrics,
    conflict_statistics,
    metrics_from_result,
    render_table,
)
from repro.analysis.compare import run_one
from repro.analysis.reporting import render_kv
from repro.core import analyze_system, conventional_baseline
from repro.core.transactions import TransactionSystem
from repro.oodb import ObjectDatabase
from repro.runtime import InterleavedExecutor, TransactionProgram
from repro.scenarios import (
    encyclopedia_registry,
    scenario_commuting_inserts,
    scenario_same_key_conflict,
)
from repro.structures import build_encyclopedia
from repro.workloads import EncyclopediaWorkload, build_encyclopedia_workload


class TestRenderTable:
    def test_columns_aligned(self):
        table = render_table(["name", "v"], [["long-name", 1], ["x", 100]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert all(len(line) >= len("long-name") for line in lines[2:])

    def test_title_first(self):
        assert render_table(["a"], [], title="T").splitlines()[0] == "T"

    def test_render_kv(self):
        text = render_kv([("key", 1), ("longer", "x")], title="facts")
        assert "facts" in text
        assert "key    : 1" in text


class TestMetrics:
    def _result(self):
        db = ObjectDatabase()
        oid = build_encyclopedia(db, order=8)

        def body(api):
            api.send(oid, "insertItem", "a", 1)

        return InterleavedExecutor(db, seed=0).run(
            [TransactionProgram("T1", body)]
        )

    def test_metrics_fields(self):
        metrics = metrics_from_result(self._result(), protocol="none")
        assert metrics.committed == 1
        assert metrics.gave_up == 0
        assert metrics.throughput > 0
        assert metrics.deadlocks == 0
        assert len(metrics.row()) == len(RunMetrics.headers())


class TestConflictStatistics:
    def test_commuting_scenario_full_reduction(self):
        scenario = scenario_commuting_inserts()
        stats = conflict_statistics(scenario.system, scenario.registry)
        assert stats.conventional_top_constraints == 1
        assert stats.oo_top_constraints == 0
        assert stats.constraint_reduction == 1.0
        assert stats.oo_serializable and stats.conventional_serializable

    def test_same_key_scenario_no_reduction(self):
        scenario = scenario_same_key_conflict()
        stats = conflict_statistics(scenario.system, scenario.registry)
        assert stats.conventional_top_constraints == 1
        assert stats.oo_top_constraints == 1
        assert stats.constraint_reduction == 0.0

    def test_conventional_pair_count(self):
        system = TransactionSystem()
        t1 = system.transaction("T1")
        t2 = system.transaction("T2")
        t1.call("P", "write")
        t2.call("P", "write")
        t2.call("P", "read")
        assert conventional_baseline(system).pairs == 2  # w/w and w/r
        # two concurrent branches of one transaction: a pair, but no edge
        t1.call("Q", "write")
        t1.call("Q", "write", parallel=True)
        baseline = conventional_baseline(system)
        assert baseline.pairs == 3
        assert baseline.constraints == {("T1", "T2")}

    def test_committed_only_verdict_ignores_excluded_transactions(self):
        # T1.w(P1), X.w(P1), X.w(P2), T1.w(P2): a cycle through X, on
        # both sides — and X did not commit.
        system = TransactionSystem()
        t1 = system.transaction("T1")
        x = system.transaction("X")
        a = t1.call("P1", "write")
        b = x.call("P1", "write")
        c = x.call("P2", "write")
        d = t1.call("P2", "write")
        system.order_primitives([a, b, c, d])
        stats = conflict_statistics(
            system, encyclopedia_registry(), committed_only={"T1"}
        )
        assert not conventional_baseline(system).serializable
        assert stats.conventional_serializable
        assert stats.conventional_top_constraints == 0
        assert not analyze_system(system, encyclopedia_registry())[
            0
        ].oo_serializable
        assert stats.oo_serializable
        assert stats.oo_top_constraints == 0

    def test_committed_only_filter(self):
        scenario = scenario_same_key_conflict()
        stats = conflict_statistics(
            scenario.system, scenario.registry, committed_only={"T3"}
        )
        assert stats.conventional_top_constraints == 0
        assert stats.oo_top_constraints == 0

    def test_statistics_from_executed_workload(self):
        spec = EncyclopediaWorkload(
            n_transactions=4, ops_per_transaction=2, preload=10, seed=5
        )
        result = run_one(
            functools.partial(build_encyclopedia_workload, spec=spec),
            "open-nested-oo",
            seed=0,
        )
        stats = conflict_statistics(
            result.db.system,
            result.db.commutativity_registry(),
            committed_only=result.committed_labels | {"preload"},
        )
        # semantic reasoning can only drop constraints
        assert stats.oo_top_constraints <= stats.conventional_top_constraints
        assert len(stats.row()) == len(stats.headers())
