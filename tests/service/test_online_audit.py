"""The continuous service audit: per-batch online certification.

Every committed batch is fed to an :class:`OnlineCertifier` in commit
order, so ``certify()`` answers from the running certifier instead of
re-deriving the fixpoint — and the certification lag gauge proves the
audit never falls behind the history.

Each batch is one certifier *epoch*: once fed it is sealed and dropped.
``TestRetireRule`` holds that rule to the exact oracle (sealed ≡ exact,
sealed ≡ never sealed), shows that a seal at a non-quiescent point is
refused — and that unrefused it would have been wrong — and counts the
certifier's work and state over a long run.
"""

import functools
import random
import statistics
import threading

import pytest

from repro.core.certify import OnlineCertifier, certified_base
from repro.core.commutativity import CommutativityRegistry
from repro.core.dependency import IncrementalDependencyEngine
from repro.core.identifiers import is_virtual
from repro.core.schedule import ObjectSchedule
from repro.errors import ScheduleError
from repro.fuzz.driver import FUZZ_PROTOCOLS
from repro.fuzz.oracle import Ablation, check_history, strictness_for
from repro.service.admission import TenantQuota
from repro.service.client import generate_ops
from repro.service.service import MAX_TICKS, ServiceConfig, TransactionService


def _ops(svc: TransactionService, n: int = 1, key: int = 0) -> list:
    oid = svc.oids[-1]
    method = svc.catalog()[oid]["methods"][0]
    return [["send", oid, method, key, 1] for _ in range(n)]


def _drive(svc: TransactionService, tenants: int = 3, each: int = 4) -> int:
    statuses = []

    def client(tenant):
        for i in range(each):
            statuses.append(svc.submit(tenant, _ops(svc, key=i % 3))["status"])

    threads = [
        threading.Thread(target=client, args=(f"t{i}",))
        for i in range(tenants)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return statuses.count("committed")


@pytest.fixture
def svc():
    service = TransactionService(
        ServiceConfig(protocol="page-2pl", seed=3, batch_max=4)
    )
    service.start()
    yield service
    service.stop()


class TestOnlineAudit:
    def test_audit_keeps_up_and_matches_exact_oracle(self, svc):
        committed = _drive(svc)
        svc.stop()
        report = svc.certification()
        assert report is not None
        assert report.ok and not report.violation
        assert report.committed == committed
        # Quiesced service: the audit has consumed every commit.
        assert svc.db.metrics.get("service_certify_lag").value == 0
        assert svc.db.metrics.get("service_certified_total").value == committed
        # The running certifier's verdict is the exact oracle's.
        exact = check_history(
            svc.history_result(),
            strict_cross_object=strictness_for(svc.config.protocol),
        )
        assert svc.certify().oo_serializable == exact.oo_serializable

    def test_certify_answers_from_the_running_certifier(self, svc):
        _drive(svc, tenants=2, each=3)
        svc.stop()
        fast = svc.certify()
        exact = svc.certify(exact=True)
        assert fast.oo_serializable == exact.oo_serializable
        assert not fast.violation
        # Fast and exact commit tallies describe the same history.
        assert fast.committed == exact.committed

    def test_fast_and_exact_commit_split_is_accounted(self, svc):
        committed = _drive(svc, tenants=2, each=3)
        svc.stop()
        report = svc.certification()
        assert report.fast_commits + report.escalated_commits == committed
        assert report.actions > 0

    def test_online_certify_can_be_disabled(self):
        service = TransactionService(
            ServiceConfig(protocol="page-2pl", seed=3, online_certify=False)
        )
        service.start()
        try:
            _drive(service, tenants=1, each=2)
        finally:
            service.stop()
        assert service.certification() is None
        # certify() falls back to the exact oracle and still answers.
        assert not service.certify().violation

    def test_audit_runs_under_optimistic_validation(self):
        # The optimistic certifier extends committed trees during
        # validation; the online audit must survive (and stay correct
        # under) those externally-attached virtual duplicates.
        service = TransactionService(
            ServiceConfig(protocol="optimistic-oo", seed=5, batch_max=3)
        )
        service.start()
        try:
            committed = _drive(service, tenants=3, each=3)
        finally:
            service.stop()
        report = service.certification()
        assert report.committed == committed
        exact = check_history(
            service.history_result(),
            strict_cross_object=strictness_for("optimistic-oo"),
        )
        assert report.oo_serializable == exact.oo_serializable
        assert service.db.metrics.get("service_certify_lag").value == 0


# -- the retire rule ---------------------------------------------------------

CATALOGS = (1, 2, 7, 8)
WAVE = 8


class _Recorder(OnlineCertifier):
    """The service's certifier, remembering what it was fed and answered."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fed: list = []
        self.verdicts: list = []

    def observe_commit(self, txn):
        ok = super().observe_commit(txn)
        self.fed.append(txn)
        self.verdicts.append(ok)
        return ok


class _Leaky(OnlineCertifier):
    """The wrong retire rule: seal after every commit, never check."""

    def observe_commit(self, txn):
        ok = super().observe_commit(txn)
        self.seal()
        self._sealed_seq = 0
        return ok


def _certifier(svc, ablation, cls=OnlineCertifier, **kwargs):
    """A certifier built the way a shard unit builds its own."""
    registry = svc.db.commutativity_registry().copy()
    if ablation is not None:
        registry = ablation.apply(registry)
    return cls(
        certified_base(svc.db.system),
        registry,
        strict_cross_object=strictness_for(svc.config.protocol),
        **kwargs,
    )


def _waves(svc, rng, waves: int) -> list:
    """Full batches: submit ``WAVE`` requests, wait for all, repeat."""
    catalog = svc.catalog()
    statuses = []
    for _ in range(waves):
        pending = [
            svc.submit_async(f"t{i % 3}", generate_ops(rng, catalog))[1]
            for i in range(WAVE)
        ]
        statuses += [p.wait(60)["status"] for p in pending]
    return statuses


@functools.cache
def _cell(protocol: str, seed: int, ablated: bool):
    """One multi-batch service run, judged online (sealed) and exactly."""
    svc = TransactionService(
        ServiceConfig(protocol=protocol, seed=seed, batch_max=WAVE)
    )
    ablation = (
        Ablation(object_name=svc.spec.leaf_objects[0].name) if ablated else None
    )
    svc._group.units[0].certifier = _certifier(
        svc, ablation, _Recorder, metrics=svc.db.metrics
    )
    with svc:
        _waves(svc, random.Random(repr((seed, "retire"))), waves=4)
    exact = check_history(
        svc.history_result(),
        ablation,
        strict_cross_object=strictness_for(protocol),
    )
    return svc, ablation, exact


MATRIX = [
    (protocol, seed, ablated)
    for protocol in FUZZ_PROTOCOLS
    for seed in CATALOGS
    for ablated in (False, True)
]


def _violating_cells() -> list:
    return [cell for cell in MATRIX if _cell(*cell)[2].violation]


class TestRetireRule:
    @pytest.mark.parametrize("protocol,seed,ablated", MATRIX)
    def test_sealed_verdict_is_the_exact_oracles(self, protocol, seed, ablated):
        svc, _, exact = _cell(protocol, seed, ablated)
        report = svc.certification()
        assert report.epochs >= 1
        assert report.oo_serializable == exact.oo_serializable

    def test_the_matrix_holds_real_violations(self):
        # Without them, sealed ≡ exact would be "ok == ok" forty times.
        assert _violating_cells()

    @pytest.mark.parametrize("protocol,seed,ablated", MATRIX)
    def test_sealed_equals_never_sealed_at_every_prefix(
        self, protocol, seed, ablated
    ):
        svc, ablation, _ = _cell(protocol, seed, ablated)
        sealed = svc._group.units[0].certifier
        unsealed = _certifier(svc, ablation)
        verdicts = [unsealed.observe_commit(txn) for txn in sealed.fed]
        assert verdicts == sealed.verdicts
        assert unsealed.epochs <= 1

    def test_premature_seal_is_refused(self):
        # One batch's trees overlap: a seal between two of them promises
        # an order the stamps contradict.
        svc, ablation, _ = _cell("open-nested-oo", CATALOGS[0], False)
        batch = svc._group.units[0].certifier.fed[:WAVE]
        hasty = _certifier(svc, ablation)
        with pytest.raises(ScheduleError, match="premature"):
            for txn in batch:
                hasty.observe_commit(txn)
                hasty.seal()
        # Refused, not judged: no verdict moved.
        assert hasty.oo_serializable

    def test_unrefused_premature_seal_would_have_been_wrong(self):
        # The self-test of the differential above: retire trees too early
        # (and silence the check) and the exact oracle must catch it.
        cells = [cell for cell in _violating_cells() if cell[2]]
        assert cells
        missed = []
        for cell in cells:
            svc, ablation, exact = _cell(*cell)
            leaky = _certifier(svc, ablation, _Leaky)
            for txn in svc._group.units[0].certifier.fed:
                leaky.observe_commit(txn)
            if leaky.oo_serializable != exact.oo_serializable:
                missed.append(cell)
        assert missed

    def test_violation_outlives_the_epoch_that_found_it(self):
        def found_before_the_last_batch(cell) -> bool:
            certifier = _cell(*cell)[0]._group.units[0].certifier
            return certifier.verdicts.index(False) < len(certifier.fed) - WAVE

        cell = next(filter(found_before_the_last_batch, _violating_cells()))
        svc = _cell(*cell)[0]
        certifier = svc._group.units[0].certifier
        assert not any(certifier.verdicts[-WAVE:])
        held = certifier.live_transactions
        certifier.seal()  # a no-op on a violated certifier
        assert certifier.live_transactions == held > 0
        assert svc.certification().violation

    def test_optimistic_validation_across_epochs(self):
        # The protocol's own validator hangs virtual duplicates on earlier
        # (by then sealed-away) trees.
        for seed in CATALOGS:
            svc, _, exact = _cell("optimistic-oo", seed, False)
            report = svc.certification()
            assert report.epochs >= 3
            assert report.escalated_epochs >= 1
            assert report.oo_serializable == exact.oo_serializable

    def test_failed_batch_is_sealed_and_the_next_one_certifies(self):
        svc = TransactionService(
            ServiceConfig(protocol="page-2pl", seed=3, batch_max=4)
        )
        with svc:
            short = _ops(svc)
            hog = _ops(svc, key=1) + [["work", 400]]
            svc.executor.max_ticks = 120
            pending = [
                svc.submit_async("t", ops)[1] for ops in (short, short, short, hog)
            ]
            statuses = [p.wait(60)["status"] for p in pending]
            assert statuses.count("committed") >= 1
            assert "error" in statuses
            svc.executor.max_ticks = MAX_TICKS
            pending = [svc.submit_async("t", short)[1] for _ in range(4)]
            assert [p.wait(60)["status"] for p in pending] == ["committed"] * 4
        report = svc.certification()
        assert report.committed == statuses.count("committed") + 4
        assert report.epochs == 2
        assert svc._group.units[0].certifier.live_transactions == 0
        assert report.ok and not svc.certify(exact=True).violation


BATCHES = 125


@pytest.fixture(scope="module")
def long_run():
    """125 full batches (1 000 requests); in_conflict calls at every seal."""
    svc = TransactionService(
        ServiceConfig(protocol="open-nested-oo", seed=7, batch_max=WAVE)
    )
    certifier = svc._group.units[0].certifier
    registry = certifier.commutativity
    calls = [0]
    #: (in_conflict calls, commits observed) as of each seal
    marks = [(0, 0)]
    in_conflict, seal = registry.in_conflict, certifier.seal

    def counted(a, b):
        calls[0] += 1
        return in_conflict(a, b)

    def marked():
        seal()
        marks.append((calls[0], certifier.committed))

    registry.in_conflict = counted
    certifier.seal = marked
    with svc:
        _waves(svc, random.Random("flat"), waves=BATCHES)
    return svc, marks


class TestBoundedAudit:
    def test_work_per_commit_is_flat_in_history(self, long_run):
        _, marks = long_run
        assert len(marks) > BATCHES

        def calls_per_commit(first, last):
            (calls0, commits0), (calls1, commits1) = marks[first], marks[last]
            return (calls1 - calls0) / (commits1 - commits0)

        early = calls_per_commit(0, 25)
        late = calls_per_commit(100, 125)
        assert early > 0
        assert late <= 1.1 * early

    def test_nothing_is_held_between_batches(self, long_run):
        svc, _ = long_run
        certifier = svc._group.units[0].certifier
        assert certifier._engine is None
        assert certifier._log == []
        assert certifier._timelines == {}
        assert certifier.system.tops == []
        assert not any(is_virtual(oid) for oid in certifier.system.objects)
        assert certifier.live_transactions == 0
        metrics = svc.db.metrics
        assert metrics.get("certify_live_transactions").value == 0
        report = svc.certification()
        assert report.escalated  # epochs escalated, and were left behind
        assert metrics.get("certify_epochs_total").value == report.epochs
        assert report.fast_commits + report.escalated_commits == report.committed
        assert report.ok

    def test_asking_for_the_audit_state_copies_no_history(self, monkeypatch):
        # certification()/certify() hold the certifier's lock, which the
        # engine thread needs to certify the next batch: no list of every
        # outcome since start may be built there.
        svc = TransactionService(ServiceConfig(protocol="page-2pl", seed=3))
        with svc:
            for _ in range(250):
                pending = [
                    svc.submit_async(
                        f"t{i % 3}",
                        [["work", 1]],
                        deadline_ticks=0 if i == 0 else None,
                    )[1]
                    for i in range(WAVE)
                ]
                for p in pending:
                    p.wait(60)
        assert len(svc._outcomes) == 2000
        expected = len(svc.history_result().gave_up)
        assert expected > 0

        def refuse():
            raise AssertionError("history_result() on the audit-state path")

        monkeypatch.setattr(svc, "history_result", refuse)
        assert svc.certification().gave_up == expected
        assert svc.certify().gave_up == expected


@pytest.fixture(scope="module")
def decisions_run():
    """The long run again, counting every commutativity decision the
    certifier asks its object specifications for: the fast path's straggler
    screen and the exact engine's pair kernel, which decides a pair from
    the specification without going through ``in_conflict``.

    The same run counts the exact engine's work on primitive-only objects
    (the pages): the Axiom 1 and Definition 7 edges it records in their
    ``<·``, and its Definition 10 lift attempts, per commit."""
    svc = TransactionService(
        ServiceConfig(protocol="open-nested-oo", seed=7, batch_max=WAVE)
    )
    certifier = svc._group.units[0].certifier
    registry = certifier.commutativity
    decisions = [0]
    #: (specification decisions, commits observed) as of each seal
    marks = [(0, 0)]
    for_object, seal = registry.for_object, certifier.seal
    work = dict.fromkeys(("Axiom 1", "Definition 7", "lifts"), 0)
    record_reason = ObjectSchedule.record_reason
    lift = IncrementalDependencyEngine._lift

    class Counted:
        def __init__(self, spec):
            self.spec = spec

        def commutes(self, first, second):
            decisions[0] += 1
            return self.spec.commutes(first, second)

    def marked():
        seal()
        marks.append((decisions[0], certifier.committed))

    def recorded(sched, relation, src, dst, template, *args):
        if relation == "action" and not any(a.children for a in sched.actions):
            for kind in ("Axiom 1", "Definition 7"):
                work[kind] += template.startswith(kind)
        record_reason(sched, relation, src, dst, template, *args)

    def lifted(engine, *args):
        work["lifts"] += 1
        lift(engine, *args)

    registry.for_object = lambda oid: Counted(for_object(oid))
    certifier.seal = marked
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ObjectSchedule, "record_reason", recorded)
        patch.setattr(IncrementalDependencyEngine, "_lift", lifted)
        with svc:
            _waves(svc, random.Random("flat"), waves=BATCHES)
    per_commit = {kind: n / certifier.committed for kind, n in work.items()}
    return marks, per_commit


def test_specification_decisions_per_commit_are_flat(decisions_run):
    marks, _ = decisions_run
    assert len(marks) > BATCHES

    def per_commit(first, last):
        (decided0, commits0), (decided1, commits1) = marks[first], marks[last]
        return (decided1 - decided0) / (commits1 - commits0)

    early = per_commit(0, 25)
    assert early > 0
    assert per_commit(100, 125) <= 1.1 * early


def test_primitive_objects_are_judged_per_caller_pair(decisions_run):
    """A page adds to ``↝`` one edge per distinct caller pair, and no
    ``<·`` of its own (DESIGN §6, decision 16).  Materializing the pages,
    the engine recorded 101 Axiom 1 and 59 Definition 7 edges on them and
    attempted 108 lifts per commit on this run; per caller pair it records
    none and attempts 14."""
    _, per_commit = decisions_run
    assert 0 < per_commit["lifts"] <= 25
    assert per_commit["Axiom 1"] + per_commit["Definition 7"] <= 5


def test_optimistic_judge_is_bounded_by_one_batch(monkeypatch):
    """optimistic-oo validates on an epoch judge sealed at every drain.

    After every batch the judge holds no tree.  A validation feeds the
    judge its candidate and, after a drop, the epoch's committed trees —
    fewer than one batch — so no batch feeds more than ``WAVE`` trees per
    validation, however long the history.  The specification decisions a
    validation costs (counted as above, per batch) stay flat: the median
    over each 25-batch window is compared.  The window mean is not: one
    batch whose candidates fail several times rebuilds the judge once per
    failure, and such batches swing it by a quarter either way.
    """
    decisions = [0]
    for_object = CommutativityRegistry.for_object

    class Counted:
        def __init__(self, spec):
            self.spec = spec

        def commutes(self, first, second):
            decisions[0] += 1
            return self.spec.commutes(first, second)

    monkeypatch.setattr(
        CommutativityRegistry,
        "for_object",
        lambda registry, oid: Counted(for_object(registry, oid)),
    )
    fed = [0]
    observe_commit = OnlineCertifier.observe_commit

    def counted_observe(judge, txn):
        fed[0] += 1
        return observe_commit(judge, txn)

    monkeypatch.setattr(OnlineCertifier, "observe_commit", counted_observe)
    svc = TransactionService(
        ServiceConfig(
            protocol="optimistic-oo",
            seed=7,
            batch_max=WAVE,
            online_certify=False,
        )
    )
    scheduler = svc.db.scheduler
    held: list[int] = []
    #: (specification decisions, validations, trees fed) as of each seal
    marks = [(0, 0, 0)]
    seal = scheduler.seal

    def marked():
        seal()
        judge = scheduler._judge
        held.append(judge.live_transactions if judge is not None else 0)
        marks.append((decisions[0], scheduler.stats["validations"], fed[0]))

    def per_batch():
        return [
            [after - before for before, after in zip(marks[b], marks[b + 1])]
            for b in range(len(marks) - 1)
        ]

    def assert_fed_per_validation():
        for batch, (_, validations, trees) in enumerate(per_batch()):
            assert trees <= WAVE * validations, batch

    scheduler.seal = marked
    rng = random.Random("flat")
    with svc:
        for _ in range(BATCHES):
            _waves(svc, rng, waves=1)
            # Checked as the run goes: a judge that refeeds the history
            # would take an hour to finish it.
            assert_fed_per_validation()
    assert_fed_per_validation()
    assert len(marks) > BATCHES
    assert held == [0] * len(held)
    assert scheduler.stats["validation_failures"] > 0
    batches = per_batch()

    def median(first, last):
        return statistics.median(
            decided / max(1, validations)
            for decided, validations, _ in batches[first:last]
        )

    early = median(0, 25)
    assert early > 0
    assert median(100, 125) <= 1.1 * early


class TestWeightedQuota:
    def test_weight_roundtrips_through_wire_dicts(self):
        quota = TenantQuota(max_inflight=2, weight=2.5)
        assert TenantQuota.from_dict(quota.to_dict()) == quota
        assert TenantQuota.from_dict({}).weight == 1.0
        assert TenantQuota.from_dict(None).weight == 1.0

    def test_service_reads_weight_from_tenant_quota(self):
        service = TransactionService(
            ServiceConfig(protocol="page-2pl", seed=3),
            quotas={"gold": TenantQuota(weight=4.0)},
        )
        assert service._weight_for("gold") == 4.0
        assert service._weight_for("stranger") == 1.0
