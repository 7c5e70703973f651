"""Deadlines on the logical clock, hang detection at join time, and the
policy-driven deterministic restart backoff."""

import random
import threading

import pytest

from repro.analysis.compare import make_scheduler
from repro.catalog import (
    MethodPlan,
    ObjectSpec,
    ProgramSpec,
    WorkloadSpec,
    build_workload,
)
from repro.errors import DeadlineExceeded, SimulationError, TransactionAborted
from repro.oodb.database import ObjectDatabase
from repro.runtime.executor import (
    InterleavedExecutor,
    RetryPolicy,
    _Worker,
)
from repro.runtime.program import TransactionProgram


def _object(name: str) -> ObjectSpec:
    # Empty matrix = every method pair conflicts (the safe fuzz default).
    return ObjectSpec(
        name=name,
        layer=0,
        methods=[
            MethodPlan(
                name="u0",
                plan=[["write", 0]],
                update=True,
                register_compensation=True,
            ),
            MethodPlan(
                name="c_u0",
                plan=[["write", 0]],
                update=True,
                register_compensation=False,
            ),
        ],
        matrix={},
    )


def _contended_workload(seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        seed=seed,
        key_space=4,
        objects=[_object("L0O0"), _object("L0O1")],
        programs=[
            ProgramSpec(
                label="T0",
                ops=[
                    ["send", "L0O0", "u0", 0, 1],
                    ["work", 3],
                    ["send", "L0O1", "u0", 0, 1],
                ],
            ),
            ProgramSpec(
                label="T1",
                ops=[
                    ["send", "L0O1", "u0", 0, 1],
                    ["work", 3],
                    ["send", "L0O0", "u0", 0, 1],
                ],
            ),
        ],
    )


def _fresh_db(spec: WorkloadSpec, protocol: str = "open-nested-oo"):
    db = ObjectDatabase(
        scheduler=make_scheduler(protocol, spec.layers()), page_capacity=32
    )
    _, programs = build_workload(db, spec)
    return db, programs


class TestDeadlines:
    def test_deadline_exceeded_maps_onto_gave_up(self):
        db, programs = _fresh_db(_contended_workload(0))
        # T0 gets a deadline it cannot possibly meet; T1 runs free.
        programs[0].deadline_tick = 2
        result = InterleavedExecutor(db, seed=0).run(programs)
        victim = next(o for o in result.outcomes if o.label == "T0")
        assert victim.deadline_exceeded and victim.gave_up
        assert not victim.committed and victim.final_ctx is None
        assert result.deadline_exceeded == [victim]
        assert victim in result.gave_up
        assert "T0" not in result.committed_labels

    def test_deadline_victim_releases_its_locks(self):
        # The survivor must still commit: the victim's abort ran and freed
        # the fully-conflicting objects (DeadlineExceeded is an abort).
        db, programs = _fresh_db(_contended_workload(0))
        programs[0].deadline_tick = 2
        result = InterleavedExecutor(db, seed=0).run(programs)
        survivor = next(o for o in result.outcomes if o.label == "T1")
        assert survivor.committed

    def test_deadline_gave_up_is_counted_in_metrics(self):
        db, programs = _fresh_db(_contended_workload(0))
        programs[0].deadline_tick = 2
        InterleavedExecutor(db, seed=0).run(programs)
        counter = db.metrics.get("executor_deadline_gave_up_total")
        assert counter is not None and counter.value == 1

    def test_generous_deadline_still_commits(self):
        db, programs = _fresh_db(_contended_workload(0))
        for program in programs:
            program.deadline_tick = 100_000
        result = InterleavedExecutor(db, seed=0).run(programs)
        assert result.all_committed
        assert result.deadline_exceeded == []

    def test_no_deadline_by_default(self):
        assert TransactionProgram("T", lambda api: None).deadline_tick is None

    def test_deadline_exceeded_is_a_transaction_abort(self):
        # It must flow through the existing abort machinery (rollback,
        # compensation, lock release), not through error handling.
        assert issubclass(DeadlineExceeded, TransactionAborted)
        exc = DeadlineExceeded("T9", 42)
        assert exc.deadline_tick == 42
        assert "42" in str(exc)

    def test_deadline_applies_on_later_runs_of_a_persistent_executor(self):
        # Service engines reuse one executor; now is monotonic across
        # run() calls, so an absolute deadline from a past epoch is
        # already expired for a later batch.
        db, programs = _fresh_db(_contended_workload(0))
        executor = InterleavedExecutor(db, seed=0)
        first = executor.run([programs[0]])
        assert first.all_committed
        stale = TransactionProgram(
            "stale", lambda api: api.send("L0O1", "u0", 0, 1),
            deadline_tick=max(1, executor.now - 1),
        )
        result = executor.run([stale])
        assert result.outcomes[0].deadline_exceeded
        assert result.outcomes[0].attempts == 0  # never even started


class TestRetryPolicy:
    def test_default_policy_reproduces_the_historical_backoff_stream(self):
        # The pinned fuzz baseline depends on this exact draw sequence:
        # delay = 1 + randrange(min(2**(attempt+1), 64)) from the
        # executor's own RNG.
        policy = RetryPolicy()
        for seed in range(5):
            a, b = random.Random(seed), random.Random(seed)
            for attempt in range(10):
                expected = 1 + b.randrange(min(2 ** (attempt + 1), 64))
                assert policy.delay_for(attempt, a) == expected

    def test_delay_honours_base_and_cap(self):
        policy = RetryPolicy(base=3, cap=5)
        rng = random.Random(0)
        for attempt in range(8):
            delay = policy.delay_for(attempt, rng)
            assert 1 <= delay <= 5

    def test_round_trip(self):
        policy = RetryPolicy(base=4, cap=32)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        assert RetryPolicy.from_dict(None) == RetryPolicy()

    def test_restarting_runs_replay_byte_identically(self):
        # Retries draw jitter from the executor's seeded RNG, so a rerun
        # with the same seeds reproduces attempts and outcomes exactly.
        def run_once(seed):
            db, programs = _fresh_db(_contended_workload(seed))
            result = InterleavedExecutor(db, seed=seed).run(programs)
            return [
                (o.label, o.attempts, o.committed) for o in result.outcomes
            ], result.makespan

        for seed in range(6):
            assert run_once(seed) == run_once(seed)

    def test_custom_policy_changes_the_schedule_deterministically(self):
        def run_once(policy):
            db, programs = _fresh_db(_contended_workload(1))
            executor = InterleavedExecutor(db, seed=1, retry_policy=policy)
            return executor.run(programs).makespan

        eager = RetryPolicy(base=2, cap=2)
        patient = RetryPolicy(base=2, cap=64)
        assert run_once(eager) == run_once(eager)
        assert run_once(patient) == run_once(patient)


class TestHangDetection:
    def test_join_timeout_marks_the_worker_hung_instead_of_swallowing(self):
        db = ObjectDatabase(
            scheduler=make_scheduler("page-2pl", 1), page_capacity=32
        )
        executor = InterleavedExecutor(db, seed=0, join_timeout=0.05)
        program = TransactionProgram("stuck", lambda api: None)
        worker = _Worker(executor, program)
        release = threading.Event()
        # Fabricate a worker whose thread never finishes: the join must
        # time out and *report* the hang, not block forever or drop it.
        worker.thread = threading.Thread(
            target=release.wait, name="txn-stuck", daemon=True
        )
        worker.thread.start()
        executor._workers = [worker]
        try:
            hung = executor._join_workers()
            assert hung == [worker]
            assert worker.outcome.hung and worker.outcome.gave_up
            assert not worker.outcome.committed
            assert worker.outcome.final_ctx is None
            assert isinstance(worker.outcome.error, SimulationError)
            assert "did not stop" in str(worker.outcome.error)
            counter = db.metrics.get("executor_hung_workers_total")
            assert counter is not None and counter.value == 1
        finally:
            release.set()
            worker.thread.join(5)

    def test_healthy_workers_join_without_being_marked(self):
        db, programs = _fresh_db(_contended_workload(0))
        executor = InterleavedExecutor(db, seed=0, join_timeout=30.0)
        result = executor.run(programs)
        assert result.hung == []
        assert db.metrics.get("executor_hung_workers_total") is None

    def test_hung_outcome_surfaces_in_execution_result(self):
        from repro.runtime.executor import ExecutionResult, WorkerOutcome

        ok = WorkerOutcome(
            program=TransactionProgram("ok", lambda api: None), committed=True
        )
        hung = WorkerOutcome(
            program=TransactionProgram("bad", lambda api: None),
            hung=True,
            gave_up=True,
        )
        result = ExecutionResult(
            outcomes=[ok, hung], makespan=1, scheduler_stats={}, db=None
        )
        assert result.hung == [hung]
        assert hung in result.gave_up
        assert not result.all_committed
