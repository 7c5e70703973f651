"""Deadlock-victim restart under open nesting.

Two transactions take two fully-conflicting objects in opposite orders, so
one run of the interleaved executor must produce a lock-wait cycle.  The
wound-wait resolver kills a victim whose first send already completed as an
open subtransaction — its compensation must actually execute during the
abort — and the victim's restart must commit, leaving a committed history
the oracle still accepts.
"""

import pytest

from repro.analysis.compare import make_scheduler
from repro.catalog import (
    MethodPlan,
    ObjectSpec,
    ProgramSpec,
    WorkloadSpec,
    build_workload,
)
from repro.core.judge import check_history, strictness_for
from repro.oodb.database import ObjectDatabase
from repro.runtime.executor import InterleavedExecutor


def _object(name: str) -> ObjectSpec:
    # An empty matrix makes every method pair conflict (the safe default of
    # the fuzz commutativity spec) — including u0 against itself.
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


def _workload(seed: int) -> WorkloadSpec:
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


def _run(seed: int):
    spec = _workload(seed)
    db = ObjectDatabase(
        scheduler=make_scheduler("open-nested-oo", spec.layers()),
        page_capacity=32,
    )
    _, programs = build_workload(db, spec)
    result = InterleavedExecutor(db, seed=seed).run(programs)
    return db, result


def _deadlocked_run():
    for seed in range(10):
        db, result = _run(seed)
        if db.scheduler.stats.get("deadlocks", 0) > 0:
            return db, result
    pytest.fail("no interleaving produced a deadlock in 10 executor seeds")


def test_victim_restarts_compensates_and_commits():
    db, result = _deadlocked_run()
    # the victim was aborted at least once and retried to commit
    assert result.total_restarts >= 1
    assert any(o.attempts > 1 for o in result.outcomes)
    assert result.all_committed
    # the aborted attempt's completed open subtransaction was compensated
    methods = {a.method for a in db.system.all_actions()}
    assert "c_u0" in methods
    # and the surviving committed history passes the oracle
    report = check_history(
        result, strict_cross_object=strictness_for("open-nested-oo")
    )
    assert not report.violation, report.description
    assert report.committed == 2


def test_restart_reaches_commit_even_under_strict_criterion():
    """Both objects are fully conflicting, so the committed projection is
    serial at every object — the strict closure must agree too."""
    _, result = _deadlocked_run()
    report = check_history(result, strict_cross_object=True)
    assert not report.violation, report.description
