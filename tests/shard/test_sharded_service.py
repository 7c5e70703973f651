"""The multi-tenant service running on the sharded runtime."""

import random
import threading

import pytest

from repro.errors import DatabaseError, SimulationError
from repro.fuzz.generator import GeneratorProfile, generate
from repro.service.client import generate_ops
from repro.runtime.program import program_from_ops
from repro.service.service import (
    MAX_TICKS,
    ServiceConfig,
    TransactionService,
)
from repro.shard.partition import split_ops
from repro.shard import service
from repro.shard.coordinator import ABORT, COMMIT
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


class TestFailedBatch:
    """``ShardGroup.run_batch`` unwinds a batch whose epochs fail."""

    @staticmethod
    def _requests(rng, catalog, first: int) -> list[dict]:
        return [
            {
                "label": f"t/txn#{first + i}",
                "ops": generate_ops(rng, catalog),
                "max_restarts": 20,
                "deadline_ticks": 4000,
            }
            for i in range(6)
        ]

    @staticmethod
    def _group(protocol: str):
        spec = generate(7, GeneratorProfile().grouped(2))
        catalog = {
            ospec.name: {"methods": [plan.name for plan in ospec.methods]}
            for ospec in spec.objects
        }
        return ShardGroup(spec, protocol, 2, seed=7), catalog

    @pytest.mark.parametrize("protocol", ["page-2pl", "open-nested-oo"])
    def test_a_failed_batch_leaves_no_worker_and_no_lock(self, protocol):
        group, catalog = self._group(protocol)
        rng = random.Random("unwind")
        executor = group.units[1].executor
        loop = executor._controller_loop
        forced: list[str] = []

        def fail_once():
            status = loop()
            if not forced:
                forced.append(status)
                raise SimulationError("forced controller failure")
            return status

        executor._controller_loop = fail_once
        with pytest.raises(SimulationError, match="forced"):
            group.run_batch(self._requests(rng, catalog, 0))
        assert forced
        for unit in group.units:
            assert not any(
                worker.thread.is_alive() for worker in unit.executor._workers
            )
            assert unit.db.scheduler.table.lock_count == 0
        # The prepared cross-shard branches were rolled back: decided ABORT.
        coordinator = group.coordinator
        assert coordinator.multi
        assert {coordinator.decisions[base] for base in coordinator.multi} == {
            ABORT
        }
        for unit in group.units:  # ... and ship no Definition 15 edge
            assert not set(coordinator.multi) & {
                label for edge in unit.current_edges() for label in edge
            }
        kept = {base for u in group.units for base in u.committed_attempts}
        assert kept  # what committed before the failure stays committed
        outcomes = group.run_batch(self._requests(rng, catalog, 6))
        committed = {label for label, o in outcomes.items() if o.committed}
        assert committed
        for unit in group.units:
            assert unit.db.scheduler.table.lock_count == 0
        report = group.certify()
        assert not report.violation
        assert report.committed == len(kept | committed)

    @staticmethod
    def _assert_atomic_unwind(group: ShardGroup) -> None:
        """No live worker, no held lock, and every cross-shard transaction
        committed on all of its shards or on none, as decided."""
        for unit in group.units:
            assert not any(
                worker.thread.is_alive() for worker in unit.executor._workers
            )
            assert unit.db.scheduler.table.lock_count == 0
        decisions = group.coordinator.decisions
        for base, shards in group.coordinator.multi.items():
            committed_on = {
                shard
                for shard in shards
                if base in group.units[shard].committed_attempts
            }
            expected = set(shards) if decisions[base] == COMMIT else set()
            assert committed_on == expected, (base, decisions[base])

    def _unwound_after_a_commit_verdict(self, group, catalog, rng) -> None:
        self._assert_atomic_unwind(group)
        batch = set(group.coordinator.multi)
        assert COMMIT in {group.coordinator.decisions[b] for b in batch}
        outcomes = group.run_batch(self._requests(rng, catalog, 6))
        assert any(outcome.committed for outcome in outcomes.values())
        self._assert_atomic_unwind(group)
        assert not group.certify().violation

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_commit_verdict_survives_a_failed_epoch(self, failing):
        """The error hits one unit's second epoch, after the first round
        decided COMMIT: the failing unit holds the verdict unapplied, and
        unit 1 never sees it when unit 0 fails."""
        group, catalog = self._group("open-nested-oo")
        executor = group.units[failing].executor
        loop = executor._controller_loop
        calls: list[None] = []

        def fail_second():
            calls.append(None)
            if len(calls) == 2:
                raise SimulationError("forced controller failure")
            return loop()

        executor._controller_loop = fail_second
        rng = random.Random("unwind")
        with pytest.raises(SimulationError, match="forced"):
            group.run_batch(self._requests(rng, catalog, 0))
        self._unwound_after_a_commit_verdict(group, catalog, rng)

    def test_a_commit_verdict_survives_the_round_bound(self, monkeypatch):
        """``drive_epochs`` gives up right after a round: no unit has
        received that round's verdicts."""
        group, catalog = self._group("open-nested-oo")
        rng = random.Random("unwind")
        with monkeypatch.context() as patch:
            patch.setattr(service, "MAX_ROUNDS", 0)
            with pytest.raises(SimulationError, match="coordinator rounds"):
                group.run_batch(self._requests(rng, catalog, 0))
        self._unwound_after_a_commit_verdict(group, catalog, rng)

    def test_the_service_answers_every_kept_commit_committed(self):
        """A failed batch through the service: unit 1's controller loop
        fails once after its first epoch.  Every transaction the group
        keeps as committed is answered "committed" — a kept commit answered
        "error" is the service's second-worst lie — and the audit sees
        every kept commit reported."""
        svc = TransactionService(
            ServiceConfig(protocol="page-2pl", seed=3, shards=2, batch_max=8)
        )
        executor = svc.db.units[1].executor
        loop = executor._controller_loop
        forced: list[str] = []

        def fail_once():
            status = loop()
            if not forced:
                forced.append(status)
                raise SimulationError("forced controller failure")
            return status

        executor._controller_loop = fail_once
        rng = random.Random("unwind")
        catalog = svc.catalog()
        # Queued before the engine starts: one batch of all eight.
        pending = [
            svc.submit_async(f"t{i % 2}", generate_ops(rng, catalog))
            for i in range(8)
        ]
        with svc:
            replies = [p.wait(60) for _, p in pending]
        assert forced
        assert svc._batches.value == 0  # the one batch failed
        kept = {
            base for unit in svc.db.units for base in unit.committed_attempts
        }
        assert kept, "the failure must hit after some commits"
        answered = {r["label"] for r in replies if r["status"] == "committed"}
        assert answered == kept
        assert {r["status"] for r in replies} == {"committed", "error"}
        audit = svc.audit()
        assert audit["unreported_commits"] == [] and audit["ok"]
        assert svc.certify().committed == len(kept)
        # An answer edited by hand afterwards: the audit flags it.
        label = sorted(kept)[0]
        svc.session(label.split("/")[0]).settle(label, "error")
        audit = svc.audit()
        assert audit["unreported_commits"] == [label]
        assert not audit["ok"]
