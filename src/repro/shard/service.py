"""The shard engine: one shard unit, one barrier loop, one Def 16 composition.

:class:`ShardState` is *the* per-shard unit — a shard's database,
:class:`~repro.shard.executor.ShardExecutor`, online certifier, clock
offset and cumulative committed attempts — and :class:`ShardGroup` is its
only driver.  A fresh group run for one batch of programs is a fuzz cell
(:func:`repro.fuzz.sharded.run_sharded_cell`); a group reused batch after
batch is the service's engine at every shard count.  One shard is the
single-core case: no transaction spans shards, nothing coordinates, and the
run is byte-identical to the plain executor.

Shards run in **bulk-synchronous epochs** (:func:`drive_epochs`): every unit
drives its deterministic controller loop until quiescent (all programs
finished, or every runnable worker parked on a ``2pc:`` key), then all meet
at a barrier.  There the coordinator ingests each unit's votes and its
current Definition 15 constraint edges (base-mapped, over the batch's
committed-or-prepared transactions), runs the global Definition 16
acyclicity check, and broadcasts verdicts; the units resume.  The barrier
also aligns the logical clocks: the global tick is the max of every unit's
``offset + now`` and the per-unit offsets are re-based to it.  A batch
ends with every attempt decided — a quiescent point no cycle spans (DESIGN
§6.15) — so the 2PC state and the Definition 15 report cover one batch.

The verdict composes the same way for a cell and for a service run
(:func:`compose_report`): objects never span shards, so every unit's
committed projection must pass the local Def 10-14 analysis — the one
judge, :func:`~repro.core.judge.judge_committed` — and the base-mapped
union of their Definition 15 constraint sets must stay acyclic.
The online audit (:meth:`ShardGroup.audit_batch`) is the same composition
one batch at a time: each unit's :class:`~repro.core.certify.OnlineCertifier`
certifies and seals the unit's commits, and after a coordinating batch the
union of the units' final Definition 15 edges must be acyclic.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

from repro.catalog import WorkloadSpec, host_workload
from repro.core.certify import OnlineCertifier, certified_base
from repro.core.graph import OnlineTopology
from repro.core.judge import (
    Ablation,
    OracleReport,
    judge_committed,
    strictness_for,
)
from repro.core.serializability import analyze_system
from repro.errors import SimulationError
from repro.obs.events import EventBus, event_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.oodb.trace import committed_history
from repro.runtime.executor import (
    _DONE,
    ExecutionResult,
    RetryPolicy,
    WorkerOutcome,
)
from repro.runtime.program import (
    TransactionProgram,
    base_label,
    program_from_ops,
)
from repro.shard.coordinator import ABORT, Coordinator
from repro.shard.executor import ShardExecutor
from repro.shard.partition import ShardMap, split_ops

#: seed stride between shards (shard 0 keeps the caller's seed verbatim —
#: part of the 1-shard byte-identity contract)
_SEED_STRIDE = 100_003

#: coordinator rounds one batch may take before it is declared livelocked
MAX_ROUNDS = 10_000

#: the online audit's counters, summed over the units
_SUMMED = (
    "actions fast_commits escalated_commits stragglers_scanned epochs "
    "escalated_epochs"
).split()


# ---------------------------------------------------------------------------
# the shard unit
# ---------------------------------------------------------------------------


class ShardState:
    """Everything one shard owns: database, WAL segment, executor, events.

    ``owned`` are the object specs the owner's :class:`ShardMap` assigned to
    this shard; ``seed`` is the run's seed (the unit strides it by shard).
    ``ablation`` weakens the registry behind :meth:`current_edges` — the
    judge's self-test; the service leaves it unset.
    """

    def __init__(
        self,
        shard_id: int,
        spec: WorkloadSpec,
        protocol: str,
        owned: list,
        *,
        seed: int,
        max_ticks: int,
        retry_policy: RetryPolicy | None = None,
        wal=None,
        store=None,
        checkpoint_every: int | None = None,
        collect_events: bool = False,
        ablation: Ablation | None = None,
        faults=None,
    ):
        self.shard_id = shard_id
        self.strict = strictness_for(protocol)
        self.ablation = ablation
        self.clock_offset = 0
        self.status = "new"
        self.events: list[dict] = []
        #: base label -> committed attempt label, cumulative over batches
        self.committed_attempts: dict[str, str] = {}
        #: the last batch's result (set by :meth:`finish`)
        self.result: ExecutionResult | None = None
        bus = None
        if collect_events:
            bus = EventBus()
            bus.subscribe(
                lambda event: self.events.append(event_to_dict(event))
            )
        self.db, _, _ = host_workload(
            spec,
            protocol,
            objects=owned,
            programs=[],
            wal=wal,
            store=store,
            checkpoint_every=checkpoint_every,
            bus=bus,
        )
        self.executor = ShardExecutor(
            self.db,
            seed=seed + shard_id * _SEED_STRIDE,
            max_ticks=max_ticks,
            faults=faults,
            retry_policy=retry_policy,
        )
        # The shard's events tell *global* time: local ticks plus the
        # barrier-aligned offset.  At one shard the offset is always 0 and
        # this is exactly the executor's own clock.
        self.db.bus.clock = lambda: self.clock_offset + self.executor.now

    @cached_property
    def certifier(self) -> OnlineCertifier:
        """The unit's online audit, built by its first
        :meth:`ShardGroup.audit_batch`: a unit that never audits (a fuzz
        cell) registers no ``certify_*`` metric."""
        return OnlineCertifier(
            certified_base(self.db.system),
            self.db.commutativity_registry().copy(),
            strict_cross_object=self.strict,
            metrics=self.db.metrics,
        )

    # -- one batch: start, epochs, finish ------------------------------------

    def start(self, programs: list[TransactionProgram], multi) -> None:
        """Launch one batch; ``multi`` names its cross-shard transactions."""
        self.executor.start(programs, multi)
        self.status = "running"

    def run_epoch(self, decisions: dict[str, str], offset: int) -> dict:
        """Apply verdicts, run until quiescent, report to the coordinator."""
        self.clock_offset = offset
        ex = self.executor
        before = self._progress()
        ex.apply_decisions(decisions)
        if self.status != "done":
            self.status = ex._controller_loop()
        failed: list[str] = []
        if not ex.crashed:
            failed = [
                worker.program.label
                for worker in ex._workers
                if worker.program.label in ex.multi_labels
                and worker.state == _DONE
                and not worker.outcome.committed
                and not worker.outcome.cross_abort
            ]
        # No cross-shard transaction, no barrier: the batch drains in one
        # epoch and nobody reads its commits or its Def 15 report.
        return {
            "shard": self.shard_id,
            "status": self.status,
            "advanced": self._progress() != before,
            "prepared": sorted(ex.prepared_attempts),
            "failed": sorted(failed),
            "committed_local": (
                sorted({base_label(c.txn_id) for c in self._committed_now()})
                if ex.multi_labels
                else []
            ),
            "edges": self.current_edges() if ex.multi_labels else [],
            "crashed": ex.crashed,
            "now": ex.now,
        }

    def finish(self) -> ExecutionResult:
        """Join the batch's workers (re-raises a worker's error)."""
        self.result = self.executor.finish()
        return self.result

    def _progress(self) -> tuple:
        ex = self.executor
        return ex.now, len(ex.prepared_attempts), len(self._committed_now())

    def _committed_now(self) -> list:
        """Contexts of the attempts the running batch has committed so far."""
        return [
            w.outcome.final_ctx
            for w in self.executor._workers
            if w.outcome.committed and w.outcome.final_ctx is not None
        ]

    # -- Definitions 10-15, locally ------------------------------------------

    def current_edges(self, registry=None) -> list:
        """The shard's Definition 15 constraints over the running batch's
        committed ∪ prepared-undecided transactions, mapped to base labels
        — what the coordinator feeds into the global Definition 16
        topology.  ``registry`` (the audit's) replaces the database's."""
        ex = self.executor
        labels = {ctx.txn_id for ctx in self._committed_now()}
        for base, attempt in ex.prepared_attempts.items():
            if ex.decisions.get(base) != ABORT:
                labels.add(attempt)
        projection, own = committed_history(self.db, labels, self.ablation)
        verdict, _ = analyze_system(
            projection, registry or own, propagate_cross_object=self.strict
        )
        return _base_edges(verdict.top_order_constraints)

    def judge(self, ablation: Ablation | None = None):
        """:func:`~repro.core.judge.judge_committed` of everything this
        shard has committed: ``(report, oo_edges, conv_edges)``."""
        return judge_committed(
            self.db,
            set(self.committed_attempts.values()),
            ablation,
            strict_cross_object=self.strict,
        )


# ---------------------------------------------------------------------------
# the barrier loop and the composed verdict
# ---------------------------------------------------------------------------


def drive_epochs(
    units: list[ShardState], coordinator: Coordinator, offsets: list[int]
) -> int:
    """Drive one batch to completion; returns the aligned global tick.

    Each epoch runs the units one after another on the calling thread
    (deterministic): each applies the verdicts and runs until quiescent
    under its clock offset.  ``offsets`` is re-based in place at every
    barrier.
    """
    decisions: dict[str, str] = {}
    rounds = 0
    while True:
        reports = [
            unit.run_epoch(decisions, offset)
            for unit, offset in zip(units, offsets)
        ]
        nows = [report["now"] for report in reports]
        global_tick = max(
            offset + now for offset, now in zip(offsets, nows)
        )
        offsets[:] = [global_tick - now for now in nows]
        if all(report["status"] == "done" for report in reports):
            return global_tick
        decisions = coordinator.round(reports)
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise SimulationError(
                f"sharded batch exceeded {MAX_ROUNDS} coordinator rounds "
                f"(livelock?)"
            )


def _base_edges(constraints) -> list:
    """Map attempt-level constraint pairs to sorted base-label pairs."""
    edges = {
        (base_label(src), base_label(dst)) for src, dst in constraints
    }
    return sorted((src, dst) for src, dst in edges if src != dst)


def _acyclic(edges) -> bool:
    topology: OnlineTopology[str] = OnlineTopology()
    for src, dst in edges:
        topology.add_edge_checked(src, dst)
    return not topology.has_cycle


def compose_report(
    judgements: list,
    *,
    committed: int,
    gave_up: int,
    coord_violations: list,
    atomicity: list[str] | tuple = (),
) -> OracleReport:
    """Definition 16 at global scope, from the per-shard judgements.

    Objects never span shards, so the merged system's object schedules are
    exactly the per-shard ones; given each shard's
    :meth:`ShardState.judge` triple the sharded verdict is therefore

    - every shard's committed projection passes the local Def 10-14
      analysis (per-protocol strictness), AND
    - the union of the shards' Definition 15 constraint sets (base-mapped)
      is acyclic (Definition 16 at global scope), AND
    - atomicity held (``atomicity`` lists the breaches), AND
    - the coordinator never witnessed a committed-only cycle.

    The conventional baseline composes the same way over page-conflict
    constraints.  One shard with nothing to add is its own report, so a
    one-shard verdict is :func:`~repro.core.judge.check_history`'s.
    """
    if len(judgements) == 1 and not coord_violations and not atomicity:
        return replace(judgements[0][0], committed=committed, gave_up=gave_up)
    oo_edges = _base_edges(e for j in judgements for e in j[1])
    conv_edges = _base_edges(e for j in judgements for e in j[2])
    oo_ok = (
        all(report.oo_serializable for report, _, _ in judgements)
        and _acyclic(oo_edges)
        and not coord_violations
        and not atomicity
    )
    conv_ok = all(
        report.conventional_serializable for report, _, _ in judgements
    ) and _acyclic(conv_edges)
    parts = [
        f"{committed} committed across {len(judgements)} shard(s)",
        "globally oo-serializable" if oo_ok else "OO-SERIALIZABILITY VIOLATED",
    ]
    if atomicity:
        parts.append(f"{len(atomicity)} atomicity violation(s)")
    if coord_violations:
        parts.append(f"{len(coord_violations)} committed cycle(s)")
    return OracleReport(
        oo_serializable=oo_ok,
        conventional_serializable=conv_ok,
        oo_constraints=len(oo_edges),
        conventional_constraints=len(conv_edges),
        committed=committed,
        description="; ".join(parts),
        gave_up=gave_up,
    )


# ---------------------------------------------------------------------------
# the group: the one driver of the units
# ---------------------------------------------------------------------------


class ShardGroup:
    """N shard units + one coordinator: the engine behind every caller.

    The service's engine thread hands it batch after batch of admitted
    requests, then :meth:`audit_batch`; a fuzz cell is a fresh group run
    for one batch (:func:`repro.fuzz.sharded.run_sharded_cell`).
    :meth:`run_batch` splits every request's ops across the owning shards,
    registers multi-shard transactions with the coordinator, drives the
    epochs until the batch drains, and merges the branch outcomes.

    ``storage_for(shard)`` gives a unit's storage keywords (``wal``,
    ``store``, ``checkpoint_every``), ``faults_for(shard)`` its fault plan;
    ``coord_wal`` is the coordinator's decide log.  ``collect_events`` and
    ``ablation`` are the cell's merged trace and oracle self-test.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        protocol: str,
        n_shards: int,
        *,
        seed: int = 0,
        max_ticks: int = 500_000,
        retry_policy: RetryPolicy | None = None,
        storage_for=None,
        coord_wal=None,
        collect_events: bool = False,
        ablation: Ablation | None = None,
        faults_for=None,
    ):
        self.n_shards = n_shards
        self.shard_map = ShardMap.plan(spec, n_shards)
        self.coordinator = Coordinator({}, wal=coord_wal)
        #: service-level metrics registry (per-shard databases keep their
        #: own; the service's engine/admission counters live here)
        self.metrics = MetricsRegistry()
        self.units = [
            ShardState(
                shard,
                spec,
                protocol,
                self.shard_map.owned(shard, spec),
                seed=seed,
                max_ticks=max_ticks,
                retry_policy=retry_policy,
                collect_events=collect_events,
                ablation=ablation,
                faults=faults_for(shard) if faults_for else None,
                **(storage_for(shard) if storage_for else {}),
            )
            for shard in range(n_shards)
        ]
        self.dbs = [unit.db for unit in self.units]
        self.clock_offsets = [0] * n_shards
        #: the last batch's merged outcomes by label; after a failed batch,
        #: only the transactions whose every branch reached a verdict
        self.outcomes: dict[str, WorkerOutcome] = {}
        #: batches whose units' final Definition 15 edges closed a cycle
        self.audit_cycles = 0

    # -- the catalog surface the service validates against -------------------

    def has_object(self, oid: str) -> bool:
        shard = self.shard_map.assignment.get(oid)
        return shard is not None and self.dbs[shard].has_object(oid)

    def get_object(self, oid: str):
        return self.dbs[self.shard_map.shard_of(oid)].get_object(oid)

    @property
    def now(self) -> int:
        """The group's logical clock: the barrier-aligned global maximum."""
        return max(
            offset + unit.executor.now
            for offset, unit in zip(self.clock_offsets, self.units)
        )

    # -- batch execution (one caller thread) ----------------------------------

    def run_batch(self, requests: list[dict]) -> dict[str, WorkerOutcome]:
        """Execute one batch of requests across the shards.

        Each request dict carries ``label``, ``ops`` and ``max_restarts``,
        optionally ``deadline_ticks``.  Returns one merged outcome per label
        (also kept as :attr:`outcomes`).

        A batch that fails — an epoch raises, or a drained batch re-raises
        a worker's error — is unwound before the error propagates.
        Its undecided cross-shard transactions are decided ABORT, and every
        unit learns every verdict of the batch — a failed epoch may not
        have delivered them.  Then every unit abandons its run: each
        unfinished worker rolls its attempt back, releasing its locks, and
        stops — except a branch of a transaction decided COMMIT, which
        commits, so the transaction commits on all of its shards.  The
        attempts that committed are kept, :attr:`outcomes` holds every
        transaction whose branches all reached a verdict of their own, and
        the next batch starts from a clean group.
        """
        self.outcomes = {}
        per_shard: list[list[TransactionProgram]] = [
            [] for _ in range(self.n_shards)
        ]
        multi: dict[str, tuple[int, ...]] = {}
        for request in requests:
            split = split_ops(request["ops"], self.shard_map)
            if len(split) > 1:
                multi[request["label"]] = tuple(sorted(split))
            budget = request.get("deadline_ticks")
            for shard in sorted(split):
                per_shard[shard].append(
                    program_from_ops(
                        request["label"],
                        split[shard],
                        max_restarts=request["max_restarts"],
                        kind="service",
                        deadline_tick=(
                            self.units[shard].executor.now + int(budget)
                            if budget is not None
                            else None
                        ),
                    )
                )
        self.coordinator.register(multi)
        for unit, programs in zip(self.units, per_shard):
            unit.start(programs, multi)
        try:
            drive_epochs(self.units, self.coordinator, self.clock_offsets)
            # finish() re-raises a worker's error once the batch drained
            per_unit = [unit.finish().outcomes for unit in self.units]
        except Exception:
            for base in multi:
                self.coordinator._decide(base, ABORT)  # if still undecided
            for unit in self.units:
                unit.executor.decisions.update(self.coordinator.decisions)
                unit.executor._abandon()
            self.outcomes = _merged(
                [[w.outcome for w in u.executor._workers] for u in self.units],
                finished_only=True,
            )
            raise
        finally:  # a failed batch keeps the attempts that committed, too
            for unit in self.units:
                for ctx in unit._committed_now():
                    unit.committed_attempts[base_label(ctx.txn_id)] = ctx.txn_id
        self.outcomes = _merged(per_unit)
        return self.outcomes

    # -- the online audit -----------------------------------------------------

    def audit_batch(self) -> None:
        """The online audit of the batch just run, a quiescent point: every
        unit certifies its commits in commit order and seals, and after a
        coordinating batch the union of the units' final Definition 15
        edges must stay acyclic (DESIGN §6.15)."""
        if self.coordinator.multi and not _acyclic(
            edge
            for unit in self.units
            for edge in unit.current_edges(unit.certifier.commutativity)
        ):
            self.audit_cycles += 1
        for unit in self.units:
            for ctx in sorted(
                unit._committed_now(),
                key=lambda ctx: (ctx.stats.commit_tick, ctx.txn_id),
            ):
                unit.certifier.observe_commit(ctx.txn)
            unit.certifier.seal()

    def certification(self, *, gave_up: int = 0):
        """The online audit's verdict so far: the units' reports summed
        (one shard's is its unit's own)."""
        reports = [u.certifier.report(gave_up=gave_up) for u in self.units]
        if len(reports) == 1:
            return reports[0]
        escalated = [report for report in reports if report.escalated]
        return replace(
            (escalated or reports)[0],
            ok=all(report.ok for report in reports) and not self.audit_cycles,
            committed=len(self.committed()),
            **{key: sum(getattr(r, key) for r in reports) for key in _SUMMED},
        )

    def committed(self) -> set[str]:
        """Base labels committed on any shard, over every batch."""
        return set().union(*(unit.committed_attempts for unit in self.units))

    # -- the composed oracle --------------------------------------------------

    def certify(self, ablation=None, *, gave_up: int = 0) -> OracleReport:
        """Judge the whole service run with the composed sharded oracle.

        ``gave_up`` is the caller's count of requests that gave up (the
        group only keeps commits)."""
        return compose_report(
            [unit.judge(ablation) for unit in self.units],
            committed=len(self.committed()),
            gave_up=gave_up,
            coord_violations=self.coordinator.violations,
        )

    def stats(self) -> dict:
        """Coordinator counters plus per-shard commit tallies."""
        stats = self.coordinator.stats()
        stats["shards"] = {
            unit.shard_id: len(unit.committed_attempts) for unit in self.units
        }
        return stats

    def close(self) -> None:
        """Durable shutdown of every unit with a live WAL: a final
        checkpoint fences redo for the next open, every dirty page reaches
        its image, and the handles close."""
        for unit in self.units:
            wal = unit.db.wal
            if wal is None or wal.crashed:
                continue
            unit.db.checkpoint()
            wal.sync()
            unit.db.store.close()
            wal.close()


def _merged(per_unit, *, finished_only: bool = False) -> dict[str, WorkerOutcome]:
    """Each transaction's branch outcomes folded into one, by label.

    Branches arrive in shard order, so the merged ``final_ctx`` is the
    lowest shard's: a real committed context, as the service's "no lost
    admitted commits" audit requires.  A transaction committed only if
    *every* branch did (2PC: all or none; a disagreement is an atomicity
    bug and merges as not committed, never as a phantom commit).  A lone
    branch is returned as is; several fold into a copy.  ``finished_only``
    keeps the transactions whose every branch reached a verdict of its own
    (:attr:`~repro.runtime.executor.WorkerOutcome.finished`): what a failed
    batch can still answer.
    """
    branches: dict[str, list[WorkerOutcome]] = {}
    for outcomes in per_unit:
        for outcome in outcomes:
            branches.setdefault(outcome.label, []).append(outcome)
    merged: dict[str, WorkerOutcome] = {}
    for label, parts in branches.items():
        if finished_only and not all(part.finished for part in parts):
            continue
        outcome = parts[0]
        if len(parts) > 1:
            outcome = replace(outcome)
            for branch in parts[1:]:
                outcome.committed = outcome.committed and branch.committed
                outcome.attempts = max(outcome.attempts, branch.attempts)
                outcome.gave_up = outcome.gave_up or branch.gave_up
                outcome.deadline_exceeded = (
                    outcome.deadline_exceeded or branch.deadline_exceeded
                )
                outcome.hung = outcome.hung or branch.hung
                outcome.cross_abort = outcome.cross_abort or branch.cross_abort
                if outcome.error is None:
                    outcome.error = branch.error
            if not outcome.committed:
                outcome.final_ctx = None
        merged[label] = outcome
    return merged
