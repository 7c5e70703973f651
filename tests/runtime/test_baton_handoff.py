"""The baton hand-off: same schedules as the Condition-based executor it
replaced, failures raised on the caller's thread, and the slice / thread
switch counts."""

import hashlib
import json
import pathlib
import sys
import threading
import time

import pytest

from repro.errors import SimulationError
from repro.fuzz import FUZZ_PROTOCOLS
from repro.fuzz.generator import GeneratorProfile, generate, host_workload
from repro.oodb.database import ObjectDatabase
from repro.runtime.executor import InterleavedExecutor
from repro.runtime.program import TransactionProgram

PINS = pathlib.Path(__file__).parent.parent / "data" / "executor_schedule_pins.json"
SEEDS = range(20)


def schedule_fingerprint(seed: int, protocol: str) -> dict:
    """What a run leaves behind that depends on every scheduling decision:
    the makespan, the commit order, and the RNG's state after the run."""
    spec = generate(seed, GeneratorProfile.smoke())
    db, _, programs = host_workload(spec, protocol)
    executor = InterleavedExecutor(db, seed=seed, max_ticks=200_000)
    result = executor.run(programs)
    commits = sorted(
        (o.final_ctx.stats.commit_tick, o.final_ctx.txn_id)
        for o in result.committed
    )
    return {
        "makespan": result.makespan,
        "commits": [txn for _, txn in commits],
        "rng": hashlib.sha256(
            repr(executor.rng.getstate()).encode()
        ).hexdigest(),
    }


def all_fingerprints() -> dict:
    return {
        f"{protocol}/{seed}": schedule_fingerprint(seed, protocol)
        for protocol in FUZZ_PROTOCOLS
        for seed in SEEDS
    }


@pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
def test_schedules_equal_the_condition_executor(protocol):
    # The pins were written by this file's all_fingerprints() run against
    # the last commit whose executor used a shared Condition.
    pins = json.loads(PINS.read_text())
    for seed in SEEDS:
        assert schedule_fingerprint(seed, protocol) == pins[f"{protocol}/{seed}"], (
            protocol,
            seed,
        )


class TestFailuresReachTheCaller:
    """A lone worker is its own successor, so after the first hand-off its
    thread takes every scheduling step — including the one that fails.
    Four thread switches in total (caller -> worker -> caller for the
    schedule that failed, the same again for the unwind) show the failing
    step ran on the worker's thread: found by the caller, every slice
    before it would have cost two."""

    def test_max_ticks_found_by_a_worker_is_raised_by_run(self):
        db = ObjectDatabase()
        executor = InterleavedExecutor(db, seed=41, max_ticks=50)

        def endless(api):
            api.work(10_000)

        with pytest.raises(SimulationError, match="max_ticks") as caught:
            executor.run([TransactionProgram("T1", endless)])
        assert caught.value.seed == 41
        assert "seed=41" in str(caught.value)
        assert executor.thread_switches == 4

    def test_all_blocked_stall_found_by_a_worker_is_raised_by_run(self):
        db = ObjectDatabase()
        executor = InterleavedExecutor(db, seed=42)

        def parks_forever(api):
            api.work(3)
            executor.wait_for(api._ctx, "a key nobody wakes")

        with pytest.raises(SimulationError, match="all transactions blocked") as caught:
            executor.run([TransactionProgram("T1", parks_forever)])
        assert caught.value.seed == 42
        assert executor.thread_switches == 4

    def test_a_failed_run_leaves_no_thread_and_no_open_attempt(self):
        db = ObjectDatabase()
        executor = InterleavedExecutor(db, seed=0, max_ticks=30)
        before = threading.active_count()
        programs = [
            TransactionProgram(f"T{i}", lambda api: api.work(10_000))
            for i in range(4)
        ]
        with pytest.raises(SimulationError):
            executor.run(programs)
        assert threading.active_count() == before
        for worker in executor._workers:
            assert not worker.outcome.finished
            assert len(worker.outcome.aborted_ctxs) == 1
        # The executor is reusable: the budget is per run.
        result = executor.run([TransactionProgram("ok", lambda api: api.work(5))])
        assert result.all_committed


def test_one_thread_runs_at_a_time_under_a_short_switch_interval():
    # More workers than cores, the interpreter switching threads as often
    # as it can: an unlocked read-modify-write between two checkpoints
    # loses updates unless the baton really is the mutual exclusion.
    workers, rounds = 12, 150
    shared = [0]

    def body(api):
        for _ in range(rounds):
            seen = shared[0]
            time.sleep(0)  # offer the GIL to anyone who could run
            shared[0] = seen + 1
            api.work(1)

    def run_once():
        shared[0] = 0
        executor = InterleavedExecutor(ObjectDatabase(), seed=5)
        result = executor.run(
            [TransactionProgram(f"T{i}", body) for i in range(workers)]
        )
        assert result.all_committed
        assert shared[0] == workers * rounds
        return result.makespan, executor.slices, executor.thread_switches

    calm = run_once()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_once() == calm
    finally:
        sys.setswitchinterval(interval)


class TestCounts:
    def test_a_lone_program_switches_threads_twice(self):
        db = ObjectDatabase()
        executor = InterleavedExecutor(db, seed=0)
        result = executor.run(
            [TransactionProgram("solo", lambda api: api.work(100))]
        )
        assert result.all_committed
        assert executor.slices >= 100
        assert executor.thread_switches <= 2
        slices = db.metrics.get("executor_slices_total")
        switches = db.metrics.get("executor_thread_switches_total")
        assert slices.value == executor.slices
        assert switches.value == executor.thread_switches

    def test_counts_are_per_run_and_the_registry_accumulates(self):
        db = ObjectDatabase()
        executor = InterleavedExecutor(db, seed=0)
        for run in range(2):
            executor.run(
                [TransactionProgram(f"p{run}", lambda api: api.work(10))]
            )
        assert executor.slices == 11
        assert db.metrics.get("executor_slices_total").value == 22


if __name__ == "__main__":
    # How the pins were written: this file run with the src/ of the commit
    # to pin on PYTHONPATH, output redirected into tests/data/.
    pins = all_fingerprints()
    cells = [
        f" {json.dumps(cell)}: {json.dumps(pins[cell], sort_keys=True)}"
        for cell in sorted(pins)
    ]
    print("{\n" + ",\n".join(cells) + "\n}")
