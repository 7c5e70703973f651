"""The crash-recovery fuzzer: kill a run mid-flight, recover, verify.

Each cell is a two-pass experiment on one ``(workload seed, protocol)``
pair.  A *counting* pass executes the workload with a passive
:class:`~repro.faults.FaultPlan`, producing a census of how often every
crash site is hit.  The *armed* pass replays the identical workload with a
plan derived from the census — a crash at a seed-chosen occurrence of a
crash site, plus optional transient dispatch failures and dropped lock
wakeups — so every failure is reproducible from
``(seed, protocol, site, occurrence)``.

After the crash, :func:`repro.oodb.wal.recover` rebuilds a fresh database
from the durable log prefix, and the **crash oracle** verifies:

1. *No lost commits*: every transaction that observed its own commit
   in-memory has a durable commit record (force-at-commit held).
2. *Winner serializability*: the committed projection of the crashed
   trace over exactly the durable winners passes the Definition 10-16
   analysis — the schedule fuzzer's own judge,
   :func:`repro.core.judge.judge_committed`, per-protocol strictness.
3. *State = serial replay of winners*: the recovered page store equals a
   from-scratch serial execution of the winners' programs.  Generated
   workload semantics are additive, so the serial state is
   order-independent; equality is semantic (a missing slot ≡ 0, because
   compensation leaves zeroed slots where physical undo removes them).
4. *Recovery idempotence*: recovering a second time over the extended log
   yields a byte-identical store, and crashing **mid-recovery** (at a
   seed-chosen undo step) followed by a fresh recovery converges to the
   same digest.

The ``skip_compensation`` ablation makes recovery "forget" compensation
replay — the oracle must catch the resulting state divergence, proving the
campaign can actually see a broken recovery.
"""

from __future__ import annotations

import contextlib
import functools
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.catalog import (
    GeneratorProfile,
    WorkloadSpec,
    generate,
    host_workload,
)
from repro.core.judge import judge_committed, strictness_for
from repro.errors import ReproError, SimulatedCrash
from repro.faults import (
    CRASH_SITES,
    DURABLE_CRASH_SITES,
    RECOVERY_SITES,
    FaultPlan,
)
from repro.fuzz.driver import FUZZ_PROTOCOLS, execute_cell
from repro.fuzz.parallel import iter_seed_results
from repro.oodb.store import FileBackedPageStore
from repro.oodb.wal import RecoveryReport, WriteAheadLog, recover, store_digest
from repro.runtime.executor import run_sequential
from repro.runtime.program import base_label

#: sites the campaign arms directly (mid-recovery is exercised separately,
#: inside every cell's idempotence check)
ARMED_SITES = tuple(s for s in CRASH_SITES if s not in RECOVERY_SITES)

#: what durable cells arm: the in-memory sites plus the storage-engine ones
DURABLE_ARMED_SITES = ARMED_SITES + DURABLE_CRASH_SITES


@dataclass(frozen=True)
class DurableConfig:
    """How a durable crash cell runs its file-backed storage engine.

    Small defaults on purpose: a handful of frames forces evictions (and
    thus WAL-rule write-backs) even on smoke workloads, and a short
    checkpoint interval makes fuzzy checkpoints land mid-workload.
    ``skip_log_force`` is the ablation: flush dirty pages *without*
    forcing the log first, which the crash oracle must catch.
    """

    frames: int = 6
    checkpoint_every: int = 48
    skip_log_force: bool = False

    def to_dict(self) -> dict:
        return {
            "frames": self.frames,
            "checkpoint_every": self.checkpoint_every,
            "skip_log_force": self.skip_log_force,
        }

    @staticmethod
    def from_dict(data: dict) -> "DurableConfig":
        return DurableConfig(
            frames=data.get("frames", 6),
            checkpoint_every=data.get("checkpoint_every", 48),
            skip_log_force=bool(data.get("skip_log_force", False)),
        )


def armed_sites(durable: DurableConfig | None) -> tuple[str, ...]:
    """What a campaign arms: durable cells add the storage-engine sites."""
    return ARMED_SITES if durable is None else DURABLE_ARMED_SITES


class _MemoryBackend:
    """Where the legs of a crash cell keep their page images: in memory.

    A *leg* is one database of the cell — the forward run, each recovery,
    each mid-recovery-crash attempt.  In memory every leg simply owns its
    database's page store: no directory, no store to hand over, nothing to
    copy when a leg forks.
    """

    #: how cells on this backend describe it (``CrashOutcome.durable``)
    config: dict | None = None
    checkpoint_every: int | None = None

    def store(self, leg: str, forward: bool = False):
        """The storage backend of ``leg``'s database (None = its own)."""
        return None

    def fork(self, src: str, dst: str) -> None:
        """Start leg ``dst`` from a copy of leg ``src``'s page images."""


class _DurableBackend:
    """Legs on the file-backed storage engine, one data dir each under
    ``root``.

    Recovery mutates a leg's data dir (conditional redo installs pages, the
    epilogue flushes and checkpoints), so every leg that must start from
    the crash-instant images forks its own copy first.
    """

    def __init__(self, spec: WorkloadSpec, durable: DurableConfig, root: str):
        self.spec = spec
        self.durable = durable
        self.root = root
        self.config = durable.to_dict()
        self.checkpoint_every = durable.checkpoint_every
        #: every store handed out; each holds a descriptor until closed
        self._stores: list[FileBackedPageStore] = []

    def store(self, leg: str, forward: bool = False) -> FileBackedPageStore:
        """Only the *forward* (pre-crash) run carries the ``skip_log_force``
        ablation; recovery legs always honor the WAL rule — the ablation is
        about planting phantom durable effects, not about breaking
        recovery."""
        store = FileBackedPageStore(
            os.path.join(self.root, leg),
            frames=self.durable.frames,
            default_capacity=self.spec.page_capacity,
            skip_log_force=forward and self.durable.skip_log_force,
        )
        self._stores.append(store)
        return store

    def close(self) -> None:
        for store in self._stores:
            store.close()

    def fork(self, src: str, dst: str) -> None:
        shutil.copytree(
            os.path.join(self.root, src), os.path.join(self.root, dst)
        )


@contextlib.contextmanager
def _backend(spec: WorkloadSpec, durable: DurableConfig | None):
    """The storage backend of one cell, alive for the ``with`` block."""
    if durable is None:
        yield _MemoryBackend()
        return
    with tempfile.TemporaryDirectory(prefix="repro-crash-") as root:
        backend = _DurableBackend(spec, durable, root)
        try:
            yield backend
        finally:
            backend.close()


def _recover_leg(spec: WorkloadSpec, wal: WriteAheadLog, store=None, **kwargs):
    """Recover one leg onto a fresh recovery database: ``(db, report)``.

    The database is hosted with no protocol and no WAL of its own — the
    deterministic bootstrap alone resolves the crashed run's object
    directory.
    """
    db, _, _ = host_workload(spec)
    return db, recover(wal, db, store=store, **kwargs)


def semantic_state(store) -> dict:
    """Page state modulo representation: non-zero slots only.

    Physical undo removes a slot that did not exist before; a compensation
    writes the arithmetic inverse, leaving the slot present with value 0.
    Both mean "no surviving effect" for the additive fuzz semantics.
    """
    state = {}
    for page_id in store.page_ids:
        for slot, value in store.get(page_id).slots.items():
            if value != 0:
                state[(page_id, slot)] = value
    return state


def crash_census(
    spec: WorkloadSpec,
    protocol: str,
    *,
    durable: DurableConfig | None = None,
    max_ticks: int = 200_000,
) -> dict:
    """Pass 1: run the workload unharmed, tallying crash-site hits.

    Durable cells run the census against a real (throwaway) file-backed
    store: eviction and checkpoint sites only fire there, and the armed
    pass must see identical occurrence counts.
    """
    plan = FaultPlan.counting()
    with _backend(spec, durable) as backend:
        execute_cell(
            spec,
            protocol,
            max_ticks=max_ticks,
            wal=WriteAheadLog(),
            store=backend.store("census", forward=True),
            checkpoint_every=backend.checkpoint_every,
            faults=plan,
        )
    return dict(plan.counts)


@dataclass
class CrashOutcome:
    """One armed cell: what happened and what the oracle concluded."""

    seed: int
    protocol: str
    site: str | None = None
    occurrence: int = 0
    plan: dict = field(default_factory=dict)
    durable: dict | None = None
    skipped: str | None = None
    crashed: bool = False
    winners: list[str] = field(default_factory=list)
    losers: list[str] = field(default_factory=list)
    gave_up: int = 0
    recovery: RecoveryReport | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_counterexample(self, spec: WorkloadSpec) -> dict:
        """Everything needed to replay this cell from a JSON file."""
        data = {
            "kind": "crash",
            "protocol": self.protocol,
            "plan": self.plan,
            "spec": spec.to_dict(),
            "violations": self.violations,
        }
        if self.durable is not None:
            data["durable"] = self.durable
        return data


def run_armed_cell(
    spec: WorkloadSpec,
    protocol: str,
    plan: FaultPlan,
    *,
    skip_compensation: bool = False,
    check_recovery_crash: bool = True,
    max_ticks: int = 200_000,
    durable: DurableConfig | None = None,
) -> CrashOutcome:
    """Pass 2: execute under the armed plan, recover, judge."""
    with _backend(spec, durable) as backend:
        outcome = CrashOutcome(
            seed=spec.seed,
            protocol=protocol,
            site=plan.crash_site,
            occurrence=plan.crash_at,
            plan=plan.to_dict(),
            durable=backend.config,
        )
        wal = WriteAheadLog()
        result = execute_cell(
            spec,
            protocol,
            max_ticks=max_ticks,
            wal=wal,
            store=backend.store("live", forward=True),
            checkpoint_every=backend.checkpoint_every,
            faults=plan,
        )
        outcome.crashed = result.crashed
        outcome.gave_up = len(result.gave_up)
        if not result.crashed:
            # Transient faults / dropped wakeups perturbed the schedule
            # enough that the armed occurrence was never reached; the run
            # completed.  Nothing to recover — the regular fuzz oracle
            # covers live runs.
            return outcome

        # --- recovery ---------------------------------------------------
        pre_crash = wal.to_list()
        # The crash-instant images, kept for the mid-recovery-crash legs.
        backend.fork("live", "pristine")
        recovery_db, recovery = _recover_leg(
            spec,
            wal,
            backend.store("live"),
            skip_compensation=skip_compensation,
        )
        outcome.recovery = recovery
        outcome.winners = list(recovery.winners)
        outcome.losers = list(recovery.losers)

        # --- oracle check 1: force-at-commit ----------------------------
        lost = result.committed_labels - set(recovery.winners)
        if lost:
            outcome.violations.append(
                "committed in memory but no durable commit record: "
                f"{sorted(lost)}"
            )

        # --- oracle check 2: winners are oo-serializable ----------------
        report, _, _ = judge_committed(
            result.db,
            set(recovery.winners),
            strict_cross_object=strictness_for(protocol),
        )
        if report.violation:
            outcome.violations.append(
                "surviving committed history is not oo-serializable: "
                + report.description
            )

        # --- oracle check 3: state equals serial replay of winners ------
        serial_db, _, serial_programs = host_workload(spec)
        by_label = {p.label: p for p in serial_programs}
        run_sequential(
            serial_db, [by_label[base_label(w)] for w in recovery.winners]
        )
        expected = semantic_state(serial_db.store)
        actual = semantic_state(recovery_db.store)
        if expected != actual:
            diff = {
                key: (expected.get(key), actual.get(key))
                for key in set(expected) | set(actual)
                if expected.get(key) != actual.get(key)
            }
            outcome.violations.append(
                "post-recovery state diverges from serial replay of winners "
                f"{recovery.winners}: {{(page, slot): (serial, recovered)}} = "
                + repr(dict(sorted(diff.items())))
            )

        # --- oracle check 4: recovery is deterministic and idempotent ---
        digest = store_digest(recovery_db.store)
        store = backend.store("live")
        twice_db, _ = _recover_leg(
            spec, wal, store, skip_compensation=skip_compensation
        )
        if store_digest(twice_db.store) != digest:
            outcome.violations.append(
                "recovering twice does not yield a byte-identical page store"
            )
        if store is not None:
            # Backend parity: from-genesis recovery over the same durable
            # log prefix must land on the identical page store —
            # conditional redo from the checkpoint may not skip anything
            # it still needed.
            mem_db, _ = _recover_leg(
                spec,
                WriteAheadLog.from_records(pre_crash),
                skip_compensation=skip_compensation,
            )
            if store_digest(mem_db.store) != digest:
                outcome.violations.append(
                    "durable (from-checkpoint) and in-memory (from-genesis) "
                    "recovery digests diverge over the same log prefix"
                )
        if check_recovery_crash and not skip_compensation:
            failure = _check_recovery_crash(spec, pre_crash, digest, backend)
            if failure:
                outcome.violations.append(failure)
        return outcome


def _check_recovery_crash(
    spec: WorkloadSpec, pre_crash: list[dict], clean_digest: str, backend
) -> str | None:
    """Crash recovery itself mid-undo, recover again, compare digests.

    Every leg starts from its own fork of the crash-instant images:
    recovery mutates them, so the crashed leg and the resumed leg share
    one (the resume continues from what the crashed leg durably did)
    while the counting leg gets a throwaway copy.
    """
    counting = FaultPlan.counting()
    backend.fork("pristine", "rc-census")
    _recover_leg(
        spec,
        WriteAheadLog.from_records(pre_crash),
        backend.store("rc-census"),
        faults=counting,
    )
    steps = counting.counts.get("recovery.step", 0)
    if steps == 0:
        return None  # nothing to undo: recovery is a pure redo
    rng = random.Random((spec.seed, "recovery-crash").__repr__())
    plan = FaultPlan.crash_plan("recovery.step", rng.randrange(steps))
    backend.fork("pristine", "rc-crash")
    wal = WriteAheadLog.from_records(pre_crash)
    try:
        _recover_leg(spec, wal, backend.store("rc-crash"), faults=plan)
    except SimulatedCrash:
        pass
    else:  # pragma: no cover - the plan always fires within `steps`
        return "mid-recovery crash plan did not fire"
    resumed_db, _ = _recover_leg(spec, wal, backend.store("rc-crash"))
    if store_digest(resumed_db.store) != clean_digest:
        return (
            "crash mid-recovery then recovery does not converge to the "
            "clean-recovery page store"
        )
    return None


def find_log_force_ablation(
    *,
    seeds: list[int],
    protocol: str = "open-nested-oo",
    durable: DurableConfig | None = None,
    marks_per_seed: int = 4,
    max_ticks: int = 200_000,
) -> tuple[WorkloadSpec, CrashOutcome] | None:
    """Hunt for a cell where a skipped log force plants a phantom page.

    A randomly placed crash rarely lands in the short window between a
    WAL-rule-violating flush and the next sync, so this probe-guided
    search finds the windows first: an instrumented counting pass records
    the site census at every write-back whose pageLSN is still volatile
    (image about to outrun the durable log), and the armed pass then
    crashes at the *next* hit of a frequent site after one of those
    flushes.  Returns the first ``(spec, outcome)`` whose 4-part oracle
    reports a violation — proof the ablation is observable — or None.
    """
    durable = durable or DurableConfig(skip_log_force=True)
    if not durable.skip_log_force:
        durable = DurableConfig(
            frames=durable.frames,
            checkpoint_every=durable.checkpoint_every,
            skip_log_force=True,
        )
    probe_sites = ("page-write.before", "page-write.after", "commit.before")
    for seed in seeds:
        spec = generate(seed, None)
        plan = FaultPlan.counting()
        marks: list[dict] = []
        wal = WriteAheadLog()

        def probe(frame) -> None:
            # Bootstrap write-backs precede the armed harness (the census
            # is still empty): no crash can be aimed at them.
            if plan.counts and frame.page_lsn >= len(wal.records):
                marks.append(dict(plan.counts))

        with _backend(spec, durable) as backend:
            store = backend.store("probe", forward=True)
            store.pool.write_back_probe = probe
            execute_cell(
                spec,
                protocol,
                max_ticks=max_ticks,
                wal=wal,
                store=store,
                checkpoint_every=backend.checkpoint_every,
                faults=plan,
            )
        for mark in marks[:marks_per_seed]:
            for site in probe_sites:
                armed = FaultPlan.crash_plan(site, mark.get(site, 0))
                outcome = run_armed_cell(
                    spec,
                    protocol,
                    armed,
                    durable=durable,
                    check_recovery_crash=False,
                    max_ticks=max_ticks,
                )
                if outcome.crashed and not outcome.ok:
                    return spec, outcome
    return None


def run_crash_cell(
    spec: WorkloadSpec,
    protocol: str,
    *,
    site: str | None = None,
    skip_compensation: bool = False,
    check_recovery_crash: bool = True,
    max_ticks: int = 200_000,
    durable: DurableConfig | None = None,
) -> CrashOutcome:
    """Census + armed pass for one cell (the single-cell/replay entry)."""
    census = crash_census(spec, protocol, durable=durable, max_ticks=max_ticks)
    plan = FaultPlan.from_census(
        spec.seed, census, site=site, sites=armed_sites(durable)
    )
    if plan is None:
        return CrashOutcome(
            seed=spec.seed,
            protocol=protocol,
            site=site,
            skipped=f"site {site!r} never hit by this workload",
        )
    return run_armed_cell(
        spec,
        protocol,
        plan,
        skip_compensation=skip_compensation,
        check_recovery_crash=check_recovery_crash,
        max_ticks=max_ticks,
        durable=durable,
    )


def replay_crash(data: dict) -> CrashOutcome:
    """Replay a crash counterexample produced by ``to_counterexample``."""
    spec = WorkloadSpec.from_dict(data["spec"])
    plan = FaultPlan.from_dict(data["plan"])
    durable = (
        DurableConfig.from_dict(data["durable"])
        if data.get("durable")
        else None
    )
    return run_armed_cell(
        spec,
        data["protocol"],
        plan,
        skip_compensation=bool(data.get("skip_compensation", False)),
        durable=durable,
    )


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


@dataclass
class CrashTally:
    """Per-protocol aggregate over a crash campaign."""

    protocol: str
    cells: int = 0
    crashes: int = 0
    completed: int = 0  # armed runs that outran their crash occurrence
    skipped: int = 0  # sites the workload never hits
    violations: int = 0
    errors: int = 0
    winners: int = 0
    losers: int = 0
    compensations: int = 0

    def row(self) -> list:
        return [
            self.protocol,
            self.cells,
            self.crashes,
            self.completed,
            self.skipped,
            self.violations,
            self.errors,
            self.winners,
            self.losers,
            self.compensations,
        ]


@dataclass
class CrashViolation:
    """One failed cell, carrying a replayable counterexample."""

    seed: int
    protocol: str
    site: str | None
    outcome: CrashOutcome
    counterexample: dict


@dataclass
class CrashCampaignResult:
    tallies: dict[str, CrashTally] = field(default_factory=dict)
    violations: list[CrashViolation] = field(default_factory=list)
    errors: list[tuple[int, str, str, str]] = field(default_factory=list)
    seeds_run: int = 0
    site_crashes: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    @property
    def crash_runs(self) -> int:
        return sum(t.crashes for t in self.tallies.values())

    def table(self) -> tuple[list[str], list[list]]:
        header = [
            "protocol",
            "cells",
            "crashes",
            "completed",
            "skipped",
            "violations",
            "errors",
            "winners",
            "losers",
            "compensations",
        ]
        return header, [t.row() for t in self.tallies.values()]


@dataclass
class CrashCell:
    """Picklable summary of one crash-campaign cell.

    A census failure produces a single protocol-level cell
    (``census_error`` set, no site); otherwise one cell per armed site, in
    site order — the exact shape the serial accounting walks.
    """

    protocol: str
    site: str | None = None
    census_error: str | None = None
    error: str | None = None
    skipped: bool = False
    outcome: CrashOutcome | None = None
    counterexample: dict | None = None


def run_seed_crash_cells(
    seed: int,
    *,
    protocols: tuple[str, ...] = FUZZ_PROTOCOLS,
    profile: GeneratorProfile | None = None,
    sites: tuple[str, ...] | None = None,
    skip_compensation: bool = False,
    check_recovery_crash: bool = True,
    max_ticks: int = 200_000,
    durable: DurableConfig | None = None,
) -> list[CrashCell]:
    """The per-seed crash-campaign worker (deterministic in ``seed``)."""
    if sites is None:
        sites = armed_sites(durable)
    spec = generate(seed, profile)
    cells: list[CrashCell] = []
    for protocol in protocols:
        try:
            census = crash_census(
                spec, protocol, durable=durable, max_ticks=max_ticks
            )
        except ReproError as exc:
            cells.append(CrashCell(protocol=protocol, census_error=repr(exc)))
            continue
        for site in sites:
            plan = FaultPlan.from_census(
                spec.seed, census, site=site, sites=sites
            )
            if plan is None:
                cells.append(
                    CrashCell(protocol=protocol, site=site, skipped=True)
                )
                continue
            try:
                outcome = run_armed_cell(
                    spec,
                    protocol,
                    plan,
                    skip_compensation=skip_compensation,
                    check_recovery_crash=check_recovery_crash,
                    max_ticks=max_ticks,
                    durable=durable,
                )
            except ReproError as exc:
                cells.append(
                    CrashCell(protocol=protocol, site=site, error=repr(exc))
                )
                continue
            cell = CrashCell(protocol=protocol, site=site, outcome=outcome)
            if not outcome.ok:
                counterexample = outcome.to_counterexample(spec)
                counterexample["skip_compensation"] = skip_compensation
                cell.counterexample = counterexample
            cells.append(cell)
    return cells


def _fold_crash_seed(
    campaign: CrashCampaignResult,
    seed: int,
    cells: list[CrashCell],
    max_violations: int,
) -> bool:
    """Fold one seed's crash cells into the campaign; True = stop."""
    for cell in cells:
        tally = campaign.tallies[cell.protocol]
        if cell.census_error is not None:
            tally.errors += 1
            campaign.errors.append(
                (seed, cell.protocol, "census", cell.census_error)
            )
            continue
        tally.cells += 1
        if cell.skipped:
            tally.skipped += 1
            continue
        if cell.error is not None:
            tally.errors += 1
            campaign.errors.append((seed, cell.protocol, cell.site, cell.error))
            continue
        outcome = cell.outcome
        if outcome.crashed:
            tally.crashes += 1
            campaign.site_crashes[cell.site] = (
                campaign.site_crashes.get(cell.site, 0) + 1
            )
            tally.winners += len(outcome.winners)
            tally.losers += len(outcome.losers)
            if outcome.recovery is not None:
                tally.compensations += (
                    outcome.recovery.compensations_replayed
                    + outcome.recovery.compensations_skipped
                )
        else:
            tally.completed += 1
        if not outcome.ok:
            tally.violations += 1
            campaign.violations.append(
                CrashViolation(
                    seed=seed,
                    protocol=cell.protocol,
                    site=cell.site,
                    outcome=outcome,
                    counterexample=cell.counterexample,
                )
            )
            if len(campaign.violations) >= max_violations:
                campaign.seeds_run += 1
                return True
    campaign.seeds_run += 1
    return False


def run_crash_campaign(
    *,
    seeds: list[int],
    protocols: tuple[str, ...] = FUZZ_PROTOCOLS,
    profile: GeneratorProfile | None = None,
    sites: tuple[str, ...] | None = None,
    skip_compensation: bool = False,
    check_recovery_crash: bool = True,
    max_violations: int = 1,
    max_ticks: int = 200_000,
    jobs: int = 1,
    durable: DurableConfig | None = None,
    progress=None,
) -> CrashCampaignResult:
    """Sweep ``seeds × protocols × crash sites``; stop after violations.

    One census per (seed, protocol); each hit site is then armed in its
    own cell, so a single seed contributes up to ``len(sites)`` crash
    runs per protocol.  ``jobs > 1`` shards seeds across worker processes
    with a seed-order fold, so the report matches a serial run byte for
    byte; ``jobs = 0`` means one worker per CPU.  ``durable`` switches
    every cell onto the file-backed storage engine (throwaway data dirs)
    and adds the storage-engine crash sites to the sweep.
    """
    if sites is None:
        sites = armed_sites(durable)
    campaign = CrashCampaignResult(
        tallies={p: CrashTally(protocol=p) for p in protocols}
    )
    worker = functools.partial(
        run_seed_crash_cells,
        protocols=tuple(protocols),
        profile=profile,
        sites=tuple(sites),
        skip_compensation=skip_compensation,
        check_recovery_crash=check_recovery_crash,
        max_ticks=max_ticks,
        durable=durable,
    )
    for seed, cells in iter_seed_results(worker, seeds, jobs):
        if _fold_crash_seed(campaign, seed, cells, max_violations):
            return campaign
        if progress is not None:
            progress(seed, campaign)
    return campaign
