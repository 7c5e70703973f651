"""Presumed-abort resolution of per-shard WAL segments.

The critical window: a shard crashes *after* voting (durable prepare
record) but *before* applying the coordinator's verdict.  Recovery must
honor a durable decide-commit (a sibling shard may already have exposed
the transaction's effects) and presume abort for everything undecided.
"""

import pytest

from repro.faults.plan import FaultPlan
from repro.fuzz.generator import GeneratorProfile, generate
from repro.oodb.wal import WriteAheadLog
from repro.shard import (
    in_doubt_attempts,
    load_decisions,
    resolve_segments,
    run_sharded_cell,
)
from repro.shard.coordinator import COMMIT

GROUPED = GeneratorProfile.smoke().grouped(2)


class TestInDoubt:
    def test_prepare_without_verdict_is_in_doubt(self):
        wal = WriteAheadLog()
        wal.append({"t": "prepare", "txn": "T5.r0"})
        wal.append({"t": "prepare", "txn": "T6.r1"})
        wal.append({"t": "commit", "txn": "T6.r1"})
        wal.sync()
        assert in_doubt_attempts(wal) == ["T5.r0"]

    def test_aborted_branches_are_not_in_doubt(self):
        wal = WriteAheadLog()
        wal.append({"t": "prepare", "txn": "T5.r0"})
        wal.append({"t": "abort", "txn": "T5.r0"})
        wal.sync()
        assert in_doubt_attempts(wal) == []

    def test_an_unsynced_prepare_never_counts(self):
        # a vote is only a vote once it is durable
        wal = WriteAheadLog()
        wal.append({"t": "prepare", "txn": "T5.r0"})
        assert in_doubt_attempts(wal) == []


class TestCrashBetweenPrepareAndCommit:
    @pytest.fixture
    def crashed_run(self, tmp_path):
        """Seed 11's 2-shard run with shard 0 crashing at its first 2PC
        commit application — after the coordinator's decide record and the
        shard's own prepare record are durable."""
        data_dir = str(tmp_path / "segments")
        spec = generate(11, GROUPED)
        result = run_sharded_cell(
            spec,
            "page-2pl",
            2,
            data_dir=data_dir,
            faults_for=lambda shard: (
                FaultPlan.crash_plan("2pc.commit", 0) if shard == 0 else None
            ),
        )
        return spec, data_dir, result

    def test_crash_is_witnessed_and_excused(self, crashed_run):
        _, _, result = crashed_run
        summaries = {s.shard: s for s in result.summaries}
        assert summaries[0].crashed
        assert not summaries[1].crashed
        # the crash must not turn into an oracle violation: the dead
        # shard's branches are resolved from its WAL segment instead
        assert result.ok, result.report.description

    def test_decided_commit_is_honored_on_the_crashed_segment(
        self, crashed_run
    ):
        spec, data_dir, result = crashed_run
        decisions = load_decisions(data_dir)
        committed_bases = {
            base for base, verdict in decisions.items() if verdict == COMMIT
        }
        # the fault site only fires on a commit verdict, so at least one
        # distributed transaction was decided commit before the crash
        assert committed_bases
        report = resolve_segments(spec, 2, data_dir, protocol="page-2pl")
        by_shard = {r.shard: r for r in report.shards}
        # the crashed shard's in-doubt branch resolved to commit
        resolved = {
            attempt.split(".")[0]
            for attempt in by_shard[0].resolved_commits
        }
        assert resolved & committed_bases
        # after resolution, every decided-commit transaction is a durable
        # winner, and nothing presumed-aborted had a commit verdict
        assert committed_bases <= report.winners
        for resolution in report.shards:
            for attempt in resolution.presumed_aborts:
                base = attempt.split(".")[0]
                assert decisions.get(base) != COMMIT

    def test_resolution_is_idempotent(self, crashed_run):
        spec, data_dir, _ = crashed_run
        first = resolve_segments(spec, 2, data_dir, protocol="page-2pl")
        second = resolve_segments(spec, 2, data_dir, protocol="page-2pl")
        assert first.winners == second.winners
        assert [r.digest for r in first.shards] == [
            r.digest for r in second.shards
        ]

    def test_live_shard_recovers_its_own_commits(self, crashed_run):
        spec, data_dir, result = crashed_run
        report = resolve_segments(spec, 2, data_dir, protocol="page-2pl")
        live = {s.shard: s for s in result.summaries}[1]
        # everything the surviving shard committed in memory is durable
        assert set(live.committed) <= report.winners
