"""The fuzz campaign driver: many seeds x five protocols x one oracle.

For every generator seed, :func:`run_campaign` builds the workload spec,
materializes it on a fresh database per protocol, executes it under the
interleaved executor (executor seed = generator seed, so one integer
reproduces both the workload and the interleaving), and hands the committed
history to the oracle.  Per-protocol tallies aggregate oracle verdicts and
admission-rate deltas; any violation is returned with enough context for
the shrinker to take over.

The campaign is split into a per-seed **worker** (:func:`run_seed_cells` —
deterministic, self-contained, picklable results) and an order-sensitive
**fold** that replays the accounting seed by seed.  ``jobs > 1`` shards the
workers across processes via :mod:`repro.fuzz.parallel`; because the fold
consumes results in seed order either way, a parallel campaign's report is
byte-identical to the serial one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.catalog import (
    GeneratorProfile,
    WorkloadSpec,
    generate,
    host_workload,
    sharded_profile,
)
from repro.core.judge import (
    Ablation,
    OracleReport,
    check_history,
    strictness_for,
)
from repro.errors import ReproError
from repro.fuzz.parallel import iter_seed_results
from repro.runtime.executor import ExecutionResult, InterleavedExecutor

#: all five protocols, including the optimistic certifier the comparison
#: engine's default tuple leaves out
FUZZ_PROTOCOLS = (
    "page-2pl",
    "closed-nested",
    "multilevel",
    "open-nested-oo",
    "optimistic-oo",
)


def execute_cell(
    spec: WorkloadSpec,
    protocol: str,
    *,
    exec_seed: int | None = None,
    max_ticks: int = 200_000,
    bus=None,
    wal=None,
    store=None,
    checkpoint_every: int | None = None,
    faults=None,
) -> ExecutionResult:
    """Host and execute one (workload, protocol) cell, without judging it.

    The one place under ``fuzz/`` that pairs a hosted database with an
    :class:`InterleavedExecutor`; callers judge the history themselves
    (the oracle, the shrinker's boolean fast path, the crash oracle).
    ``bus`` (an :class:`repro.obs.events.EventBus`) lets observers watch
    the run; left ``None``, the database's own inert bus keeps the
    no-subscriber fast path and the run's behaviour is bit-for-bit the
    same.  ``wal``/``store``/``checkpoint_every`` pick the storage engine.

    ``faults`` is armed only *after* bootstrap: the in-memory sites are
    transaction-guarded and can never fire during object creation, so the
    durable sites (which a bootstrap-time page eviction would otherwise
    hit) must stay quiet there too — a counting pass and an armed pass
    then agree on occurrence numbering, and a crash always lands inside
    the executor harness.
    """
    db, _, programs = host_workload(
        spec,
        protocol,
        wal=wal,
        store=store,
        checkpoint_every=checkpoint_every,
        bus=bus,
    )
    db.faults = faults
    executor = InterleavedExecutor(
        db,
        seed=spec.seed if exec_seed is None else exec_seed,
        max_ticks=max_ticks,
        faults=faults,
    )
    return executor.run(programs)


def run_cell(
    spec: WorkloadSpec,
    protocol: str,
    *,
    exec_seed: int | None = None,
    ablation: Ablation | None = None,
    max_ticks: int = 200_000,
    bus=None,
    certify: bool = False,
) -> tuple[ExecutionResult, OracleReport]:
    """One (workload, protocol) cell: build, execute, judge.

    ``certify=True`` judges with the Vbox-style fast certifier
    (:func:`repro.core.certify.certify_history`) instead of the full
    oracle replay — same verdict, and on violation the canonical exact
    report; a fast-path acceptance skips the conventional baseline, so
    the campaign's ``oo-only`` admission-delta column reads zero.  This
    is what makes long-history campaigns (``GeneratorProfile.long``)
    affordable.
    """
    result = execute_cell(
        spec, protocol, exec_seed=exec_seed, max_ticks=max_ticks, bus=bus
    )
    if certify:
        from repro.core.certify import certify_history

        report = certify_history(
            result, ablation, strict_cross_object=strictness_for(protocol)
        ).as_oracle_report()
    else:
        report = check_history(
            result, ablation, strict_cross_object=strictness_for(protocol)
        )
    return result, report


@dataclass
class Violation:
    """One oracle failure, carrying everything needed to reproduce it."""

    seed: int
    protocol: str
    report: OracleReport
    spec: WorkloadSpec
    ablation: Ablation | None = None


@dataclass
class ProtocolTally:
    """Per-protocol aggregate over a campaign."""

    protocol: str
    runs: int = 0
    violations: int = 0
    committed: int = 0
    gave_up: int = 0
    restarts: int = 0
    #: histories the conventional criterion would reject but oo-serializability
    #: admits — the measured admission-rate delta
    oo_only: int = 0
    errors: int = 0

    def row(self) -> list:
        delta = self.oo_only / self.runs if self.runs else 0.0
        return [
            self.protocol,
            self.runs,
            self.violations,
            self.errors,
            self.committed,
            self.gave_up,
            self.restarts,
            self.oo_only,
            f"{delta:.2f}",
        ]


@dataclass
class CampaignResult:
    """Everything a fuzz campaign produced."""

    tallies: dict[str, ProtocolTally] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)
    #: (seed, protocol, repr(error)) for runs that crashed the simulator
    errors: list[tuple[int, str, str]] = field(default_factory=list)
    seeds_run: int = 0
    #: shard count the campaign ran under (1 = plain single-core cells)
    shards: int = 1

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def table(self) -> tuple[list[str], list[list]]:
        header = [
            "protocol",
            "runs",
            "violations",
            "errors",
            "committed",
            "gave-up",
            "restarts",
            "oo-only",
            "delta",
        ]
        rows = [t.row() for t in self.tallies.values()]
        if self.shards > 1:
            # The column only appears for sharded campaigns, so a
            # ``--shards 1`` report stays byte-identical to the historical
            # single-core table (pinned by the campaign baseline test).
            header = header[:1] + ["shards"] + header[1:]
            rows = [row[:1] + [self.shards] + row[1:] for row in rows]
        return header, rows


@dataclass
class CellOutcome:
    """Picklable summary of one (seed, protocol) cell.

    Carries exactly what the campaign accounting needs across a process
    boundary — counters and the oracle report (primitives only), never the
    executed database or call trees.
    """

    protocol: str
    error: str | None = None
    committed: int = 0
    gave_up: int = 0
    restarts: int = 0
    oo_only: bool = False
    report: OracleReport | None = None


def _cell_ablation_for(
    spec: WorkloadSpec,
    ablation: Ablation | None,
    ablate_first_leaf: bool,
) -> Ablation | None:
    """``ablate_first_leaf`` derives an :class:`Ablation` per workload
    (break every entry of the first leaf object) when no explicit ablation
    is given — the self-test mode of ``python -m repro fuzz --ablate``."""
    if ablation is None and ablate_first_leaf:
        return Ablation(object_name=spec.leaf_objects[0].name)
    return ablation


def run_seed_cells(
    seed: int,
    *,
    protocols: tuple[str, ...] = FUZZ_PROTOCOLS,
    profile: GeneratorProfile | None = None,
    ablation: Ablation | None = None,
    ablate_first_leaf: bool = False,
    trace_dir: str | None = None,
    certify: bool = False,
    shards: int = 1,
) -> list[CellOutcome]:
    """The per-seed campaign worker: one seed under every protocol.

    Fully deterministic in ``seed`` (the workload, the interleaving and the
    oracle verdict all derive from it), which is what makes sharding seeds
    across processes safe.

    ``shards > 1`` runs each cell on the full sharded runtime — static
    partition, per-shard executors, 2PC through the coordinator — judged by
    the composed oracle (per-shard Def 10-14 replay plus the global
    Def 15/16 union, plus atomicity), so a violation there means the
    *distributed* protocol let a non-oo-serializable history commit.
    ``trace_dir`` and ``certify`` apply to single-core cells only.

    ``trace_dir`` attaches a span tracer to every cell and dumps the Chrome
    trace of any *interesting* one — an oracle violation, a transaction
    that exhausted its restarts, or a simulator error — to
    ``{trace_dir}/seed{seed}_{protocol}.trace.json``.  Tracing observes the
    run through the event bus without influencing it, so the campaign
    report (and its accounting) is unchanged; when ``trace_dir`` is None no
    subscriber ever attaches and the bus keeps its zero-cost path.
    """
    spec = generate(seed, sharded_profile(profile, shards))
    cell_ablation = _cell_ablation_for(spec, ablation, ablate_first_leaf)
    cells: list[CellOutcome] = []
    for protocol in protocols:
        tracer = None
        bus = None
        if trace_dir is not None and shards <= 1:
            from repro.obs.events import EventBus
            from repro.obs.tracing import SpanTracer

            bus = EventBus()
            tracer = SpanTracer(bus)
        try:
            if shards > 1:
                from repro.fuzz.sharded import run_sharded_cell

                result = run_sharded_cell(
                    spec, protocol, shards, ablation=cell_ablation
                )
                report = result.report
            else:
                result, report = run_cell(
                    spec, protocol, ablation=cell_ablation, bus=bus,
                    certify=certify,
                )
        except ReproError as exc:
            cells.append(CellOutcome(protocol=protocol, error=repr(exc)))
            if tracer is not None:
                _dump_cell_trace(tracer, trace_dir, seed, protocol, tick=None)
            continue
        cells.append(
            CellOutcome(
                protocol=protocol,
                committed=len(result.committed),
                gave_up=len(result.gave_up),
                restarts=result.total_restarts,
                oo_only=report.oo_only,
                report=report,
            )
        )
        if tracer is not None and (report.violation or result.gave_up):
            _dump_cell_trace(
                tracer, trace_dir, seed, protocol, tick=result.makespan
            )
    return cells


def _dump_cell_trace(
    tracer, trace_dir: str, seed: int, protocol: str, *, tick: int | None
) -> None:
    """Write one traced cell's span trees as Chrome trace-event JSON."""
    import json
    import os

    from repro.obs.export import chrome_trace

    tracer.finish(tick)
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"seed{seed}_{protocol}.trace.json")
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer.trees()), fh, indent=2)
        fh.write("\n")


def _fold_seed(
    campaign: CampaignResult,
    seed: int,
    cells: list[CellOutcome],
    *,
    profile: GeneratorProfile | None,
    ablation: Ablation | None,
    ablate_first_leaf: bool,
    max_violations: int,
) -> bool:
    """Fold one seed's cell outcomes into the campaign (the serial
    accounting, replayed verbatim); returns True when the campaign stops."""
    for cell in cells:
        tally = campaign.tallies[cell.protocol]
        tally.runs += 1
        if cell.error is not None:
            tally.errors += 1
            campaign.errors.append((seed, cell.protocol, cell.error))
            continue
        tally.committed += cell.committed
        tally.gave_up += cell.gave_up
        tally.restarts += cell.restarts
        if cell.oo_only:
            tally.oo_only += 1
        if cell.report is not None and cell.report.violation:
            tally.violations += 1
            # The spec is regenerated rather than shipped back from the
            # worker: generation is cheap and deterministic per seed.
            spec = generate(seed, profile)
            campaign.violations.append(
                Violation(
                    seed=seed,
                    protocol=cell.protocol,
                    report=cell.report,
                    spec=spec,
                    ablation=_cell_ablation_for(
                        spec, ablation, ablate_first_leaf
                    ),
                )
            )
            if len(campaign.violations) >= max_violations:
                campaign.seeds_run += 1
                return True
    campaign.seeds_run += 1
    return False


def run_campaign(
    *,
    seeds: list[int],
    protocols: tuple[str, ...] = FUZZ_PROTOCOLS,
    profile: GeneratorProfile | None = None,
    ablation: Ablation | None = None,
    ablate_first_leaf: bool = False,
    max_violations: int = 1,
    jobs: int = 1,
    progress=None,
    trace_dir: str | None = None,
    certify: bool = False,
    shards: int = 1,
) -> CampaignResult:
    """Run every seed under every protocol; stop after ``max_violations``.

    ``jobs > 1`` shards seeds across worker processes; the report is
    byte-identical to a serial run over the same seeds (results are folded
    in seed order either way).  ``jobs = 0`` means one worker per CPU.

    ``shards > 1`` runs every cell on the sharded runtime
    (:mod:`repro.shard`) over a grouped workload profile and judges it
    with the composed cross-shard oracle; ``--jobs`` still fans seeds out
    across processes on top (each worker drives its shards in-process).
    """
    campaign = CampaignResult(
        tallies={p: ProtocolTally(protocol=p) for p in protocols},
        shards=shards,
    )
    # Normalized here too so _fold_seed regenerates violation specs with
    # the exact profile the workers fuzzed (idempotent).
    profile = sharded_profile(profile, shards)
    worker = functools.partial(
        run_seed_cells,
        protocols=tuple(protocols),
        profile=profile,
        ablation=ablation,
        ablate_first_leaf=ablate_first_leaf,
        trace_dir=trace_dir,
        certify=certify,
        shards=shards,
    )
    for seed, cells in iter_seed_results(worker, seeds, jobs):
        stopped = _fold_seed(
            campaign,
            seed,
            cells,
            profile=profile,
            ablation=ablation,
            ablate_first_leaf=ablate_first_leaf,
            max_violations=max_violations,
        )
        if stopped:
            return campaign
        if progress is not None:
            progress(seed, campaign)
    return campaign
