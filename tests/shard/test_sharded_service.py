"""The multi-tenant service running on the sharded runtime."""

import threading

import pytest

from repro.errors import DatabaseError
from repro.runtime.program import program_from_ops
from repro.service.service import (
    MAX_TICKS,
    ServiceConfig,
    TransactionService,
)
from repro.shard.partition import split_ops
from repro.shard.service import ShardGroup


def _ops(svc: TransactionService, n: int = 1, key: int = 0) -> list:
    oid = svc.oids[-1]
    method = svc.catalog()[oid]["methods"][0]
    return [["send", oid, method, key, 1] for _ in range(n)]


def _cross_shard_ops(svc: TransactionService) -> list:
    """One send to an object on each shard — a distributed transaction."""
    group = svc.db
    by_shard = {}
    for oid in svc.oids:
        by_shard.setdefault(group.shard_map.shard_of(oid), oid)
    assert len(by_shard) == 2, "seed must spread objects over both shards"
    ops = []
    for shard in sorted(by_shard):
        oid = by_shard[shard]
        method = svc.catalog()[oid]["methods"][0]
        ops.append(["send", oid, method, 0, 1])
    return ops


@pytest.fixture
def svc():
    service = TransactionService(
        ServiceConfig(protocol="page-2pl", seed=3, shards=2, batch_max=4)
    )
    service.start()
    yield service
    service.stop()


class TestShardedService:
    def test_engine_runs_on_a_shard_group(self, svc):
        assert isinstance(svc.db, ShardGroup)
        assert svc.db.n_shards == 2
        assert svc.executor is None

    def test_concurrent_tenants_commit_audit_and_certify(self, svc):
        statuses = []

        def client(tenant):
            for i in range(4):
                response = svc.submit(tenant, _ops(svc, key=i % 3))
                statuses.append(response["status"])

        threads = [
            threading.Thread(target=client, args=(f"t{i}",)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses.count("committed") == 12
        svc.stop()
        assert svc.audit()["ok"]
        assert not svc.certify().violation

    def test_cross_shard_requests_two_phase_commit(self, svc):
        responses = [
            svc.submit("acme", _cross_shard_ops(svc)) for _ in range(3)
        ]
        assert all(r["status"] == "committed" for r in responses)
        stats = svc.db.stats()
        assert stats["rounds"] > 0, "no coordinator round ran"
        svc.stop()
        assert svc.audit()["ok"]
        assert not svc.certify().violation

    def test_a_cross_shard_transaction_stalls_then_finishes_across_epochs(
        self, svc
    ):
        # The epoch contract between ShardState and the executor, driven by
        # hand while the engine idles: a branch parked for its 2PC verdict
        # ends the epoch "stalled", the verdict resumes it to "done".
        group = svc.db
        before = threading.active_count()
        split = split_ops(_cross_shard_ops(svc), group.shard_map)
        multi = {"x": tuple(sorted(split))}
        group.coordinator.register(multi)
        for unit in group.units:
            unit.start([program_from_ops("x", split[unit.shard_id])], multi)

        reports = [unit.run_epoch({}, 0) for unit in group.units]
        assert [r["status"] for r in reports] == ["stalled", "stalled"]
        assert [r["prepared"] for r in reports] == [["x"], ["x"]]
        assert threading.active_count() == before + 2

        decisions = group.coordinator.round(reports)
        assert decisions == {"x": "commit"}

        reports = [unit.run_epoch(decisions, 0) for unit in group.units]
        assert [r["status"] for r in reports] == ["done", "done"]
        for unit in group.units:
            assert unit.finish().all_committed
        assert threading.active_count() == before

    def test_tick_budget_is_per_batch_on_every_shard(self, svc):
        # Shard executors are as long-lived as the service's single one.
        for unit in svc.db.units:
            unit.executor.now = MAX_TICKS - 3
        for _ in range(3):
            reply = svc.submit("acme", _cross_shard_ops(svc))
            assert reply["status"] == "committed", reply
        assert all(unit.executor.now > MAX_TICKS for unit in svc.db.units)

    def test_certify_reports_requests_that_gave_up(self, svc):
        assert svc.submit("acme", _ops(svc))["status"] == "committed"
        late = svc.submit("acme", _ops(svc, n=3), deadline_ticks=1)
        assert (late["status"], late["reason"]) == ("gave_up", "deadline")
        svc.stop()
        report = svc.certify()
        assert not report.violation
        assert (report.committed, report.gave_up) == (1, 1)

    def test_invalid_requests_are_rejected_up_front(self, svc):
        assert svc.submit("acme", [["send", "ghost", "m", 0, 1]])[
            "status"
        ] == "invalid"

    def test_shards_exclude_data_dir(self, tmp_path):
        with pytest.raises(DatabaseError, match="data-dir"):
            TransactionService(
                ServiceConfig(
                    protocol="page-2pl",
                    seed=3,
                    shards=2,
                    data_dir=str(tmp_path),
                )
            )

    def test_config_reports_shards(self, svc):
        assert svc.config.to_dict()["shards"] == 2
