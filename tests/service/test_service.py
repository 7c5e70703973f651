"""The in-process service engine: batching, settlement, deadlines, the
ledger audit, and oracle certification of the whole service run."""

import os
import threading

import pytest

from repro.oodb.session import DatabaseSession
from repro.service.admission import TenantQuota
from repro.service.service import (
    MAX_TICKS,
    InvalidRequest,
    ServiceConfig,
    TransactionService,
)


def _ops(svc: TransactionService, n: int = 1, key: int = 0) -> list:
    oid = svc.oids[-1]
    method = svc.catalog()[oid]["methods"][0]
    return [["send", oid, method, key, 1] for _ in range(n)]


@pytest.fixture
def svc():
    service = TransactionService(
        ServiceConfig(protocol="page-2pl", seed=3, batch_max=4)
    )
    service.start()
    yield service
    service.stop()


def test_start_stop_on_a_data_dir_returns_every_descriptor(tmp_path):
    before = len(os.listdir("/proc/self/fd"))
    service = TransactionService(
        ServiceConfig(
            protocol="page-2pl", seed=3, data_dir=str(tmp_path), frames=2
        )
    )
    service.start()
    assert service.submit("acme", _ops(service))["status"] == "committed"
    service.stop()
    assert len(os.listdir("/proc/self/fd")) == before
    # the stopped service's store still serves its pages (from the log)
    store = service.db.store
    assert all(store.get(page_id) is not None for page_id in store.page_ids)
    assert len(os.listdir("/proc/self/fd")) == before


class TestSessions:
    def test_labels_are_tenant_scoped_and_unique(self):
        session = DatabaseSession(None, "acme")
        labels = {session.next_label("txn") for _ in range(100)}
        assert len(labels) == 100
        assert all(label.startswith("acme/txn#") for label in labels)

    def test_ledger_tracks_admission_to_settlement(self):
        session = DatabaseSession(None, "acme")
        session.admit("acme/t#0")
        session.admit("acme/t#1")
        assert session.unsettled == {"acme/t#0", "acme/t#1"}
        session.settle("acme/t#0", "committed")
        session.settle("acme/t#1", "gave_up")
        assert session.unsettled == set()
        assert session.committed_labels == {"acme/t#0"}
        assert session.counts() == {
            "committed": 1, "gave_up": 1, "in_flight": 0,
        }


class TestEngine:
    def test_concurrent_tenants_commit_and_certify(self, svc):
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

    def test_response_carries_label_attempts_and_txn(self, svc):
        response = svc.submit("acme", _ops(svc), label="job")
        assert response["status"] == "committed"
        assert response["label"].startswith("acme/job#")
        assert response["attempts"] >= 1
        assert response["txn"].startswith("acme/job#")

    def test_impossible_deadline_maps_to_gave_up(self, svc):
        # Executing needs at least a few ticks; a 1-tick budget cannot.
        response = svc.submit(
            "acme", _ops(svc, n=3) + [["work", 50]], deadline_ticks=1
        )
        assert response["status"] == "gave_up"
        assert response["reason"] == "deadline"
        assert svc.audit()["ok"]  # still settled, nothing lost

    def test_invalid_requests_never_cost_admission(self, svc):
        for ops in ([], [["send", "ghost", "m", 0, 1]], [["frob", 1]],
                    [["send", svc.oids[0], "no_such_method", 0, 1]]):
            response = svc.submit("acme", ops)
            assert response["status"] == "invalid", ops
        assert "acme" not in svc.admission.snapshot()

    def test_validate_ops_raises_with_a_reason(self, svc):
        with pytest.raises(InvalidRequest, match="unknown object"):
            svc.validate_ops([["send", "ghost", "m", 0, 1]])

    def test_overload_rejections_are_explicit(self):
        quota = TenantQuota(max_inflight=1, max_queue_depth=1, rate=0.0)
        service = TransactionService(
            ServiceConfig(protocol="page-2pl", seed=3),
            quotas={"tight": quota},
        )
        # Engine not started: admitted requests sit in the queue, so the
        # second submit must see queue-full backpressure immediately.
        rejected, pending = service.submit_async("tight", _ops(service))
        assert rejected is None and pending is not None
        rejected2, _ = service.submit_async("tight", _ops(service))
        assert rejected2 is not None
        assert rejected2["status"] == "rejected"
        assert rejected2["reason"] == "queue-full"
        assert rejected2["retry_after_ms"] > 0
        # Drain cleanly: start the engine, settle the one admitted request.
        service.start()
        assert pending.wait(30)["status"] == "committed"
        service.stop()
        assert service.audit()["ok"]

    def test_global_queue_capacity_defends_the_engine(self):
        service = TransactionService(
            ServiceConfig(protocol="page-2pl", seed=3, queue_capacity=2)
        )
        pendings = []
        for i in range(2):
            rejected, pending = service.submit_async(f"t{i}", _ops(service))
            assert rejected is None
            pendings.append(pending)
        rejected, _ = service.submit_async("t9", _ops(service))
        assert rejected is not None and rejected["reason"] == "queue-full"
        service.start()
        for pending in pendings:
            assert pending.wait(30)["status"] == "committed"
        service.stop()

    def test_stop_drains_admitted_requests(self):
        service = TransactionService(
            ServiceConfig(protocol="page-2pl", seed=3)
        )
        results = []
        for i in range(3):
            rejected, pending = service.submit_async("acme", _ops(service))
            assert rejected is None
            results.append(pending)
        service.start()
        service.stop()
        # Graceful stop executes everything already admitted.
        assert [p.wait(1)["status"] for p in results] == ["committed"] * 3
        assert service.audit()["ok"]
        # And new submissions after the drain are explicitly refused.
        response = service.submit("acme", _ops(service))
        assert response["status"] == "rejected"
        assert response["reason"] == "shutting-down"

    def test_per_tenant_stats_combine_admission_and_outcomes(self, svc):
        svc.submit("acme", _ops(svc))
        stats = svc.stats()["acme"]
        assert stats["outcomes"]["committed"] == 1
        assert stats["admission"]["executing"] == 0


def _wave(svc: TransactionService, ops: list, n: int = 4) -> list[dict]:
    """Submit ``n`` requests at once and collect their replies."""
    pendings = [svc.submit_async(f"t{i % 2}", ops)[1] for i in range(n)]
    return [pending.wait(60) for pending in pendings]


class TestExecutorFailures:
    def test_tick_budget_is_per_batch_not_per_lifetime(self, svc):
        # The persistent executor's clock never resets; ~24k commits used to
        # spend MAX_TICKS for good and every later request gave up.
        svc.executor.now = MAX_TICKS - 3
        for _ in range(3):
            replies = _wave(svc, _ops(svc))
            assert [r["status"] for r in replies] == ["committed"] * 4
        assert svc.executor.now > MAX_TICKS

    def test_controller_failure_is_answered_unwound_and_survivable(self, svc):
        baseline = threading.active_count()
        # Take a lock, then outlast the tick budget while holding it.
        hog = _ops(svc) + [["work", 200]]
        svc.executor.max_ticks = 40
        for _ in range(3):
            replies = _wave(svc, hog)
            assert [r["status"] for r in replies] == ["error"] * 4
            assert all("exceeded max_ticks" in r["error"] for r in replies)
            # No worker thread of the failed batch stays parked ...
            assert threading.active_count() == baseline
        # ... and none of their attempts still holds the lock.
        svc.executor.max_ticks = MAX_TICKS
        replies = _wave(svc, _ops(svc))
        assert [r["status"] for r in replies] == ["committed"] * 4
        svc.stop()
        assert svc.audit()["ok"]
        assert not svc.certify().violation


class TestAudit:
    def test_audit_flags_fabricated_lost_commit(self, svc):
        svc.submit("acme", _ops(svc))
        session = svc.session("acme")
        # Claim a commit the engine never executed: the audit must see it.
        session.settle("acme/phantom#0", "committed")
        audit = svc.audit()
        assert not audit["ok"]
        assert audit["lost_commits"] == ["acme/phantom#0"]

    def test_audit_flags_a_kept_commit_answered_otherwise(self, svc):
        reply = svc.submit("acme", _ops(svc))
        assert svc.audit()["unreported_commits"] == []
        # Rewrite the answer the engine's commit got: the audit must see it.
        svc.session("acme").settle(reply["label"], "error")
        audit = svc.audit()
        assert not audit["ok"]
        assert audit["unreported_commits"] == [reply["label"]]

    def test_audit_flags_unsettled_admissions(self, svc):
        svc.session("acme").admit("acme/limbo#0")
        audit = svc.audit()
        assert not audit["ok"]
        assert audit["unsettled"] == ["acme/limbo#0"]

    def test_history_result_covers_every_settled_outcome(self, svc):
        for i in range(3):
            svc.submit("acme", _ops(svc, key=i))
        result = svc.history_result()
        assert len(result.outcomes) == 3
        assert len(result.committed_labels) == 3

    def test_certification_uses_protocol_strictness(self):
        from repro.fuzz.oracle import strictness_for

        for protocol in ("page-2pl", "open-nested-oo"):
            service = TransactionService(
                ServiceConfig(protocol=protocol, seed=3)
            ).start()
            service.submit("a", _ops(service))
            service.stop()
            report = service.certify()
            assert not report.violation
            # sanity: strictness helper agrees with the commit-duration set
            assert strictness_for(protocol) == (protocol != "open-nested-oo")
