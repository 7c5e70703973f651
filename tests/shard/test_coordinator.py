"""The 2PC coordinator: Def 16 cycle aborts, crash/deadlock handling, and
the decide-before-broadcast durability order."""

import pytest

from repro.errors import SimulationError
from repro.oodb.wal import WriteAheadLog
from repro.shard import ABORT, COMMIT, Coordinator, canonical_cycle


def _report(shard, **kwargs):
    base = {
        "shard": shard,
        "status": "stalled",
        "advanced": True,
        "prepared": [],
        "failed": [],
        "committed_local": [],
        "edges": [],
        "crashed": False,
    }
    base.update(kwargs)
    return base


class TestCanonicalCycle:
    def test_rotates_smallest_node_first(self):
        assert canonical_cycle(["T2", "T0", "T1", "T2"]) == (
            "T0", "T1", "T2", "T0",
        )

    def test_rotation_invariant(self):
        assert canonical_cycle(["T1", "T0", "T1"]) == canonical_cycle(
            ["T0", "T1", "T0"]
        )


class TestCycleAborts:
    def test_cycle_closed_by_last_prepare_aborts_the_closer(self):
        """T0 commits first; T1's *last* prepare closes T1 -> T0 -> T1."""
        coordinator = Coordinator({"T0": (0, 1), "T1": (0, 1)})
        # Round 1: shard 0 prepared both, shard 1 only T0.  T0 has all its
        # votes and the one visible edge leads out of the candidate set,
        # so T0 commits.
        first = coordinator.round([
            _report(0, prepared=["T0", "T1"], edges=[["T0", "T1"]]),
            _report(1, prepared=["T0"]),
        ])
        assert first == {"T0": COMMIT}
        # Round 2: shard 1's prepare of T1 arrives with the back edge.
        # The insertion would close T0 -> T1 -> T0 against a transaction
        # that already committed, so T1 — the closer — must abort.
        second = coordinator.round([
            _report(0, prepared=["T0", "T1"], edges=[["T0", "T1"]]),
            _report(1, prepared=["T0", "T1"], edges=[["T1", "T0"]]),
        ])
        assert second == {"T1": ABORT}
        assert coordinator.cycle_aborts == 1
        assert coordinator.violations == []

    def test_same_round_cycle_aborts_smallest_and_commits_rest(self):
        coordinator = Coordinator({"T0": (0, 1), "T1": (0, 1)})
        new = coordinator.round([
            _report(0, prepared=["T0", "T1"], edges=[["T0", "T1"]]),
            _report(1, prepared=["T0", "T1"], edges=[["T1", "T0"]]),
        ])
        assert new == {"T0": ABORT, "T1": COMMIT}
        assert coordinator.cycle_aborts == 1

    def test_committed_only_cycle_is_a_recorded_violation(self):
        """A cycle discovered only after both ends committed cannot be
        aborted away any more — it is the protocol's failure, recorded."""
        coordinator = Coordinator({"T0": (0, 1), "T1": (0, 1)})
        first = coordinator.round([
            _report(0, prepared=["T0", "T1"], edges=[["T0", "T1"]]),
            _report(1, prepared=["T0", "T1"]),
        ])
        assert first == {"T0": COMMIT, "T1": COMMIT}
        coordinator.round([
            _report(0, prepared=["T0", "T1"], edges=[["T0", "T1"]]),
            _report(1, prepared=["T0", "T1"], edges=[["T1", "T0"]]),
        ])
        assert coordinator.violations == [("T0", "T1", "T0")]
        # rediscovering the same cycle next round must not duplicate it
        coordinator.round([
            _report(0, edges=[["T0", "T1"]]),
            _report(1, edges=[["T1", "T0"]]),
        ])
        assert len(coordinator.violations) == 1


class TestFailuresAndCrashes:
    def test_branch_failure_aborts_the_whole_transaction(self):
        coordinator = Coordinator({"T0": (0, 1)})
        new = coordinator.round([
            _report(0, prepared=["T0"]),
            _report(1, failed=["T0"]),
        ])
        assert new == {"T0": ABORT}

    def test_shard_crash_voids_its_transactions(self):
        coordinator = Coordinator({"T0": (0, 1), "T1": (1, 2)})
        new = coordinator.round([
            _report(0, prepared=["T0"]),
            _report(1, crashed=True),
            _report(2, prepared=["T1"]),
        ])
        assert new == {"T0": ABORT, "T1": ABORT}
        assert coordinator.crash_aborts == 2

    def test_crashed_shards_edges_are_ignored(self):
        coordinator = Coordinator({"T0": (0, 1)})
        new = coordinator.round([
            _report(0, prepared=["T0"], committed_local=["T2"]),
            _report(
                1,
                prepared=["T0"],
                crashed=True,
                edges=[["T0", "T2"], ["T2", "T0"]],
            ),
        ])
        # the crash itself aborts T0; the dead shard's edges never reach
        # the topology (no cycle abort on top of the crash abort)
        assert new == {"T0": ABORT}
        assert coordinator.cycle_aborts == 0


class TestDeadlockBreaker:
    def test_globally_wedged_aborts_smallest_voted(self):
        coordinator = Coordinator({"T0": (0, 1), "T1": (0, 1)})
        new = coordinator.round([
            _report(0, advanced=False, prepared=["T1"]),
            _report(1, advanced=False),
        ])
        assert new == {"T1": ABORT}
        assert coordinator.deadlock_aborts == 1

    def test_progress_elsewhere_suppresses_the_breaker(self):
        coordinator = Coordinator({"T0": (0, 1)})
        new = coordinator.round([
            _report(0, advanced=False, prepared=["T0"]),
            _report(1, advanced=True),
        ])
        assert new == {}
        assert coordinator.deadlock_aborts == 0

    def test_wedged_with_nothing_to_abort_is_an_error(self):
        coordinator = Coordinator({"T0": (0, 1)})
        with pytest.raises(SimulationError, match="wedged"):
            coordinator.round([
                _report(0, advanced=False),
                _report(1, advanced=False),
            ])


class TestDurability:
    def test_decide_records_are_forced_before_broadcast(self):
        wal = WriteAheadLog()
        coordinator = Coordinator({"T0": (0, 1)}, wal=wal)
        new = coordinator.round([
            _report(0, prepared=["T0"]),
            _report(1, prepared=["T0"]),
        ])
        assert new == {"T0": COMMIT}
        decides = [r for r in wal.records if r["t"] == "decide"]
        assert [(r["txn"], r["verdict"]) for r in decides] == [("T0", COMMIT)]

    def test_decisions_are_idempotent(self):
        wal = WriteAheadLog()
        coordinator = Coordinator({"T0": (0, 1)}, wal=wal)
        reports = [
            _report(0, prepared=["T0"]),
            _report(1, prepared=["T0"]),
        ]
        coordinator.round(reports)
        assert coordinator.round(reports) == {}  # nothing new
        assert len([r for r in wal.records if r["t"] == "decide"]) == 1

    def test_register_enrolls_later_transactions(self):
        """Each register() starts a batch: its transactions replace the
        last batch's, whose votes and verdicts are gone; the counters
        stay cumulative."""
        coordinator = Coordinator({"T1": (0, 1)})
        coordinator.round([
            _report(0, prepared=["T1"]),
            _report(1, prepared=["T1"]),
        ])
        assert coordinator.decisions == {"T1": COMMIT}
        coordinator.register({"T9": (0, 2)})
        assert (coordinator.multi, coordinator.decisions) == (
            {"T9": (0, 2)}, {},
        )
        new = coordinator.round([
            _report(0, prepared=["T9"]),
            _report(2, prepared=["T9"]),
        ])
        assert new == {"T9": COMMIT}
        assert coordinator.rounds == 2
