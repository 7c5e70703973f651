"""Cross-segment two-phase-commit resolution (presumed abort).

A shard can crash between voting (its durable ``prepare`` record) and
learning the verdict.  Recovery of a single WAL segment cannot resolve
such an *in-doubt* branch by itself — the truth lives in the coordinator's
decide log, which is forced **before** any verdict is broadcast:

- prepare record, **no** decide record  -> presumed abort.  The branch's
  base WAL recovery already treats a transaction without a commit record
  as a loser, so nothing needs to be written.
- prepare record + durable ``decide commit`` -> the branch *must* commit:
  a sibling shard may already have exposed the transaction's effects.  A
  resolution commit record is appended to the segment before replay, which
  turns the branch into a regular recovery winner.

:func:`resolve_segments` applies that rule to every shard segment in a
data directory, then runs the standard single-log recovery
(:func:`repro.oodb.wal.recover`) per shard against a fresh database
holding only the shard's objects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.catalog import WorkloadSpec, host_workload
from repro.oodb.database import ObjectDatabase
from repro.oodb.wal import (
    RecoveryReport,
    WriteAheadLog,
    recover,
    store_digest,
)
from repro.runtime.program import base_label
from repro.shard.partition import ShardMap


def load_decisions(data_dir: str) -> dict[str, str]:
    """The coordinator's durable verdicts: base label -> commit | abort."""
    path = os.path.join(data_dir, "coord.wal.jsonl")
    if not os.path.exists(path):
        return {}
    wal = WriteAheadLog.load(path)
    decisions: dict[str, str] = {}
    for record in wal.records:
        if record.get("t") == "decide":
            decisions[record["txn"]] = record["verdict"]
    return decisions


def in_doubt_attempts(wal: WriteAheadLog) -> list[str]:
    """Attempt labels with a durable prepare but no commit/abort record."""
    state: dict[str, str] = {}
    for record in wal.records:
        kind = record.get("t")
        txn = record.get("txn")
        if not txn:
            continue
        if kind == "prepare":
            state[txn] = "prepared"
        elif kind in ("commit", "abort"):
            state[txn] = kind
    return sorted(txn for txn, s in state.items() if s == "prepared")


@dataclass
class ShardResolution:
    """One shard segment's recovery outcome."""

    shard: int
    resolved_commits: list[str] = field(default_factory=list)
    presumed_aborts: list[str] = field(default_factory=list)
    recovery: RecoveryReport | None = None
    digest: str = ""


@dataclass
class ResolutionReport:
    """The whole data directory, resolved shard by shard."""

    decisions: dict[str, str]
    shards: list[ShardResolution] = field(default_factory=list)

    @property
    def winners(self) -> set[str]:
        """Base labels durably committed somewhere after resolution."""
        return {
            base_label(winner)
            for resolution in self.shards
            if resolution.recovery is not None
            for winner in resolution.recovery.winners
        }


def resolve_segment(
    wal: WriteAheadLog, decisions: dict[str, str], db: ObjectDatabase
) -> ShardResolution:
    """Resolve one shard's in-doubt branches, then recover the segment."""
    resolution = ShardResolution(shard=-1)
    if wal.crashed:
        wal.reopen()
    for attempt in in_doubt_attempts(wal):
        if decisions.get(base_label(attempt)) == "commit":
            # The global verdict was commit: honor the vote.  The record
            # is forced before replay so a crash during recovery leaves
            # the branch resolved, not in doubt again.
            wal.append({"t": "commit", "txn": attempt, "via": "2pc-resolution"})
            wal.sync()
            resolution.resolved_commits.append(attempt)
        else:
            resolution.presumed_aborts.append(attempt)
    resolution.recovery = recover(wal, db)
    resolution.digest = store_digest(db.store)
    wal.close()
    return resolution


def resolve_segments(
    spec: WorkloadSpec,
    n_shards: int,
    data_dir: str,
    *,
    protocol: str | None = None,
) -> ResolutionReport:
    """Resolve and recover every shard WAL segment under ``data_dir``.

    Each shard's database is rebuilt with only its owned objects (the
    deterministic bootstrap assigns the same page ids the crashed run
    used), mirroring the crash fuzzer's recovery-leg construction.
    """
    decisions = load_decisions(data_dir)
    report = ResolutionReport(decisions=decisions)
    shard_map = ShardMap.plan(spec, n_shards)
    for shard in range(n_shards):
        path = os.path.join(data_dir, f"shard{shard}.wal.jsonl")
        if not os.path.exists(path):
            continue
        wal = WriteAheadLog.load(path)
        # Re-point the loaded log at its file so resolution commit records
        # are forced to disk, not just into the in-memory prefix.
        wal.path = path
        db, _, _ = host_workload(
            spec, protocol, objects=shard_map.owned(shard, spec), programs=[]
        )
        resolution = resolve_segment(wal, decisions, db)
        resolution.shard = shard
        report.shards.append(resolution)
    return report
