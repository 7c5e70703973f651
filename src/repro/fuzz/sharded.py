"""The sharded fuzz cell, and the canonical cell report.

A sharded *cell* is a fresh :class:`~repro.shard.service.ShardGroup` run for
exactly one batch — the workload spec's programs, through
:meth:`~repro.shard.service.ShardGroup.run_batch` like any service batch —
then judged by :func:`~repro.shard.service.compose_report` plus the
cell-only atomicity check (:func:`assemble_result`).

Epochs run one after another on the calling thread.  Each unit's
interleaving depends only on its own seeded RNG and the (deterministic)
decision stream, and the merged event trace — per-shard streams sorted by
``(tick, shard, stream index)`` — is byte-stable across runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.catalog import WorkloadSpec
from repro.core.judge import (
    Ablation,
    OracleReport,
    check_history,
    strictness_for,
)
from repro.obs.events import EventBus, event_to_dict
from repro.oodb.wal import WriteAheadLog
from repro.runtime.program import base_label
from repro.shard.coordinator import ABORT, COMMIT
from repro.shard.service import ShardGroup, ShardState, compose_report

#: executor tick budget of one cell (the fuzz driver's ``execute_cell`` value)
CELL_MAX_TICKS = 200_000


# ---------------------------------------------------------------------------
# one shard's end-of-cell digest
# ---------------------------------------------------------------------------


@dataclass
class ShardSummary:
    """End-of-cell digest of one shard."""

    shard: int
    committed: list[str]
    gave_up: list[str]
    cross_aborts: list[str]
    restarts: int
    crashed: bool
    #: the shard's :meth:`~repro.shard.service.ShardState.judge` triple
    judgement: tuple
    metrics: dict
    events: list = field(default_factory=list)


def _summarize(unit: ShardState) -> ShardSummary:
    """Digest the unit's finished batch and judge its committed history."""
    result = unit.result
    return ShardSummary(
        shard=unit.shard_id,
        committed=sorted(unit.committed_attempts),
        gave_up=sorted(o.label for o in result.outcomes if o.gave_up),
        cross_aborts=sorted(o.label for o in result.outcomes if o.cross_abort),
        restarts=result.total_restarts,
        crashed=result.crashed,
        judgement=unit.judge(unit.ablation),
        metrics=dict(unit.db.metrics.as_dict()),
        events=unit.events,
    )


# ---------------------------------------------------------------------------
# the aggregate result
# ---------------------------------------------------------------------------


@dataclass
class ShardedResult:
    """Everything one sharded run produced, plus the global verdict."""

    seed: int
    protocol: str
    n_shards: int
    summaries: list[ShardSummary]
    coordinator: dict
    decisions: dict[str, str]
    report: OracleReport
    atomicity_violations: list[str]
    committed: list[str]
    gave_up: list[str]
    cross_aborted: list[str]
    makespan: int
    events: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.report.violation

    @property
    def total_restarts(self) -> int:
        return sum(summary.restarts for summary in self.summaries)

    def canonical_text(self) -> str:
        """The byte-stable cell report (CI diffs this against ``--single``)."""
        return format_cell_report(
            seed=self.seed,
            protocol=self.protocol,
            shards=self.n_shards,
            committed=self.committed,
            gave_up=self.gave_up,
            cross_aborts=self.cross_aborted,
            makespan=self.makespan,
            report=self.report,
            coordinator=self.coordinator,
            events=self.events,
        )


def format_cell_report(
    *,
    seed: int,
    protocol: str,
    shards: int,
    committed: list[str],
    gave_up: list[str],
    cross_aborts: list[str],
    makespan: int,
    report: OracleReport,
    coordinator: dict,
    events: list[dict],
) -> str:
    """One canonical, field-by-field-comparable report for a cell.

    The single-core formatter (:func:`single_core_text`) emits the same
    shape, so ``diff`` between a ``--shards 1`` run and a single-core run
    is the byte-identity check CI performs.  Only deterministic fields
    appear — verdict booleans and constraint counts, never description
    prose — and the event stream is folded into a digest.
    """
    blob = json.dumps(events, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    violations = coordinator.get("violations", [])
    lines = [
        f"workload seed={seed} protocol={protocol} shards={shards}",
        f"committed: {' '.join(committed) if committed else '-'}",
        f"gave-up: {' '.join(gave_up) if gave_up else '-'}",
        f"cross-aborts: {' '.join(cross_aborts) if cross_aborts else '-'}",
        f"makespan: {makespan}",
        (
            f"oo-serializable: {report.oo_serializable} "
            f"conventional: {report.conventional_serializable} "
            f"oo-constraints: {report.oo_constraints} "
            f"conv-constraints: {report.conventional_constraints}"
        ),
        (
            f"coordinator: rounds={coordinator.get('rounds', 0)} "
            f"cycle-aborts={coordinator.get('cycle_aborts', 0)} "
            f"deadlock-aborts={coordinator.get('deadlock_aborts', 0)} "
            f"crash-aborts={coordinator.get('crash_aborts', 0)} "
            f"violations={len(violations)}"
        ),
        f"events: count={len(events)} sha256={digest}",
    ]
    return "\n".join(lines) + "\n"


def assemble_result(
    spec: WorkloadSpec, protocol: str, group: ShardGroup
) -> ShardedResult:
    """Fuse a cell group's per-shard summaries into the global verdict.

    The Def 14-16 decomposition is :func:`~repro.shard.service.
    compose_report`'s; the cell adds the atomicity check — a cross-shard
    transaction committed on all of its shards or none, always matching the
    coordinator's verdict.
    """
    summaries = [_summarize(unit) for unit in group.units]
    coordinator = group.coordinator
    decisions = coordinator.decisions
    crashed_shards = {s.shard for s in summaries if s.crashed}
    committed_on: dict[str, set[int]] = {}
    for summary in summaries:
        for base in summary.committed:
            committed_on.setdefault(base, set()).add(summary.shard)

    atomicity: list[str] = []
    for base, shards in sorted(coordinator.multi.items()):
        have = committed_on.get(base, set())
        if not have:
            continue
        verdict = decisions.get(base)
        if verdict is None:
            atomicity.append(
                f"{base} committed on shards {sorted(have)} without a "
                f"coordinator decision"
            )
        elif verdict == ABORT:
            atomicity.append(
                f"{base} committed on shards {sorted(have)} despite a "
                f"global abort"
            )
        # A crashed shard's in-memory commit state is void: its branches
        # are resolved from the WAL segments (repro.shard.recovery), so
        # only a missing commit on a *live* shard breaks atomicity.
        missing = (set(shards) - have) - crashed_shards
        if missing and verdict == COMMIT:
            atomicity.append(
                f"{base} committed on shards {sorted(have)} but not on "
                f"{sorted(missing)}"
            )

    committed = sorted(committed_on)
    gave_up = sorted(
        {base for s in summaries for base in s.gave_up} - set(committed)
    )
    cross_aborted = sorted(
        {base for s in summaries for base in s.cross_aborts}
        - set(committed)
    )
    coordinator_stats = coordinator.stats()
    report = compose_report(
        [summary.judgement for summary in summaries],
        committed=len(committed),
        gave_up=len(gave_up),
        coord_violations=coordinator_stats["violations"],
        atomicity=atomicity,
    )

    merged_metrics: dict = {}
    for summary in summaries:
        for key, value in summary.metrics.items():
            if isinstance(value, (int, float)):
                merged_metrics[key] = merged_metrics.get(key, 0) + value

    return ShardedResult(
        seed=spec.seed,
        protocol=protocol,
        n_shards=group.n_shards,
        summaries=summaries,
        coordinator=coordinator_stats,
        decisions=dict(decisions),
        report=report,
        atomicity_violations=atomicity,
        committed=committed,
        gave_up=gave_up,
        cross_aborted=cross_aborted,
        makespan=group.now,
        events=merge_events(summaries),
        metrics=merged_metrics,
    )


def merge_events(summaries: list[ShardSummary]) -> list[dict]:
    """The global trace: per-shard streams merged on (tick, shard, index).

    Each shard's stream is already in emission order and stamped with
    barrier-aligned global ticks, so this sort key is total and the merge
    is byte-stable across runs.
    """
    keyed = []
    for summary in sorted(summaries, key=lambda s: s.shard):
        for index, event in enumerate(summary.events):
            keyed.append(
                (int(event.get("tick", 0)), summary.shard, index, event)
            )
    keyed.sort(key=lambda item: item[:3])
    return [event for *_key, event in keyed]


# ---------------------------------------------------------------------------
# the cell
# ---------------------------------------------------------------------------


def run_sharded_cell(
    spec: WorkloadSpec,
    protocol: str,
    n_shards: int,
    *,
    data_dir: str | None = None,
    collect_events: bool = False,
    ablation: Ablation | None = None,
    faults_for=None,
) -> ShardedResult:
    """One sharded (workload, protocol) cell: a fresh group, one batch.

    ``data_dir`` puts every shard's WAL segment and the coordinator's
    decide log on disk (``repro.shard.recovery`` resolves them after a
    crash); ``faults_for(shard)`` arms a fault plan per shard.
    """
    coord_wal = storage_for = None
    if data_dir is not None:
        os.makedirs(data_dir, exist_ok=True)
        coord_wal = WriteAheadLog(os.path.join(data_dir, "coord.wal.jsonl"))

        def storage_for(shard: int) -> dict:
            path = os.path.join(data_dir, f"shard{shard}.wal.jsonl")
            return {"wal": WriteAheadLog(path)}

    group = ShardGroup(
        spec,
        protocol,
        n_shards,
        seed=spec.seed,
        max_ticks=CELL_MAX_TICKS,
        storage_for=storage_for,
        coord_wal=coord_wal,
        collect_events=collect_events,
        ablation=ablation,
        faults_for=faults_for,
    )
    group.run_batch(
        [
            {
                "label": pspec.label,
                "ops": pspec.ops,
                "max_restarts": pspec.max_restarts,
            }
            for pspec in spec.programs
        ]
    )
    return assemble_result(spec, protocol, group)


# ---------------------------------------------------------------------------
# the single-core reference formatter
# ---------------------------------------------------------------------------


def single_core_text(
    spec: WorkloadSpec,
    protocol: str,
    *,
    ablation: Ablation | None = None,
) -> str:
    """The canonical cell report of a plain single-core execution.

    Judged by :func:`~repro.core.judge.check_history`, which is what a
    one-shard group's composed report is, so a ``--shards 1`` run must
    reproduce this output byte for byte (the CI ``shard-smoke`` check).
    """
    from repro.fuzz.driver import execute_cell

    events: list[dict] = []
    bus = EventBus()
    bus.subscribe(lambda event: events.append(event_to_dict(event)))
    result = execute_cell(spec, protocol, max_ticks=CELL_MAX_TICKS, bus=bus)
    return format_cell_report(
        seed=spec.seed,
        protocol=protocol,
        shards=1,
        committed=sorted(base_label(lbl) for lbl in result.committed_labels),
        gave_up=sorted(o.label for o in result.gave_up),
        cross_aborts=[],
        makespan=result.makespan,
        report=check_history(
            result, ablation, strict_cross_object=strictness_for(protocol)
        ),
        coordinator={},
        events=events,
    )
