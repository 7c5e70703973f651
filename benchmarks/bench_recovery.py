"""Experiments C9 and C15 — what crash recovery costs.

C9: the write-ahead log (``repro.oodb.wal``) makes the open-nesting
journal durable; :func:`repro.oodb.wal.recover` is ARIES-shaped (analysis,
redo, one merged backward undo/revert pass).  This bench crashes the same
generated workload at increasing scales — the crash is armed at the *last*
page write, so the log holds nearly the whole run — and measures what
recovery costs and where the time goes.  Expected shape: wall time scales
roughly linearly with the number of durable records (redo repeats history
record-by-record); the backward pass is proportional to the losers'
surviving journals, which stay small in comparison because subcommits
continually truncate them down to single compensation records.
Determinism is verified on every row: recovering a second time over the
extended log yields a byte-identical page store.

C15: the file-backed storage engine's counterclaim.  A fixed set of live
objects accumulates 1x/4x/16x of update history; the crash always lands
the same distance past the last fuzzy checkpoint, so the WAL tail is
byte-identical across scales.  Durable (from-checkpoint, conditional-redo)
recovery must stay flat while in-memory (from-genesis) recovery grows with
the whole log — and both must land on byte-identical page-store digests.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import emit, write_trajectory

from repro.analysis import render_table
from repro.core.commutativity import MatrixCommutativity
from repro.faults import FaultPlan
from repro.fuzz.crash import crash_census
from repro.fuzz.driver import execute_cell
from repro.fuzz.generator import GeneratorProfile, generate, host_workload
from repro.locking import OpenNestedLocking
from repro.oodb import DatabaseObject, ObjectDatabase, dbmethod
from repro.oodb.store import FileBackedPageStore
from repro.oodb.wal import WriteAheadLog, recover, store_digest

SITE = "page-write.after"

SCALES = (
    ("smoke", GeneratorProfile.smoke()),
    ("default", GeneratorProfile()),
    ("2x programs", replace(GeneratorProfile(), n_programs=10)),
    ("2x programs+ops", replace(GeneratorProfile(), n_programs=10, ops_per_program=8)),
)


def _crashed_wal(profile: GeneratorProfile, seed: int = 3):
    """Run the workload to its last page write and crash there."""
    spec = generate(seed, profile)
    census = crash_census(spec, "open-nested-oo")
    occurrences = census.get(SITE, 0)
    if occurrences == 0:
        return spec, None
    plan = FaultPlan.crash_plan(SITE, occurrences - 1)
    wal = WriteAheadLog()
    result = execute_cell(spec, "open-nested-oo", wal=wal, faults=plan)
    return spec, (wal if result.crashed else None)


def run_recovery_bench():
    rows = []
    reports = []
    for name, profile in SCALES:
        spec, wal = _crashed_wal(profile)
        if wal is None:
            continue
        records = wal.to_list()
        db, _, _ = host_workload(spec)
        start = time.perf_counter()
        report = recover(WriteAheadLog.from_records(records), db)
        elapsed_ms = 1000.0 * (time.perf_counter() - start)
        digest = store_digest(db.store)

        twice_db, _, _ = host_workload(spec)
        recover(WriteAheadLog.from_records(records), twice_db)
        # a recovered-then-recovered log must reconverge byte-identically
        deterministic = store_digest(twice_db.store) == digest

        rows.append(
            [
                name,
                len(records),
                len(report.losers),
                report.redo_applied,
                report.undone + report.reverted,
                report.compensations_replayed,
                f"{elapsed_ms:.1f}",
                f"{len(records) / max(elapsed_ms, 1e-9):.0f}",
                "yes" if deterministic else "NO",
            ]
        )
        reports.append((name, report, deterministic))
    table = render_table(
        [
            "scale",
            "wal records",
            "losers",
            "redo",
            "undo+revert",
            "comps",
            "recover ms",
            "records/ms",
            "deterministic",
        ],
        rows,
        title="C9 — recovery cost vs durable log length "
        f"(crash at last {SITE})",
    )
    return table, reports


# ---------------------------------------------------------------------------
# C15 — history-length sweep: flat from-checkpoint vs linear from-genesis
# ---------------------------------------------------------------------------

C15_OBJECTS = 8
C15_BASE_TXNS = 250
C15_FACTORS = (1, 4, 16)
C15_TAIL_TXNS = 30  # identical post-checkpoint tail at every scale
C15_ROUNDS = 7


class _SweepCounter(DatabaseObject):
    commutativity = MatrixCommutativity({("add", "add"): True})

    def setup(self):
        self.data["total"] = 0

    @dbmethod(update=True, compensation=lambda args, result: ("add", (-args[0],)))
    def add(self, n):
        self.data["total"] = self.data.get("total", 0) + n


def _sweep_bootstrap(root=None, checkpoint_every=None):
    wal = WriteAheadLog()
    store = (
        FileBackedPageStore(str(root), frames=32, default_capacity=64)
        if root is not None
        else None
    )
    db = ObjectDatabase(
        scheduler=OpenNestedLocking(),
        page_capacity=64,
        wal=wal,
        store=store,
        checkpoint_every=checkpoint_every,
    )
    oids = [db.create(_SweepCounter, oid=f"C{i}") for i in range(C15_OBJECTS)]
    return db, wal, oids


def _sweep_history(root, factor):
    """Run ``factor`` x the base history over the same live objects, pin the
    final checkpoint, append the fixed tail, and crash mid-transaction."""
    db, wal, oids = _sweep_bootstrap(root, checkpoint_every=400)
    for i in range(C15_BASE_TXNS * factor):
        ctx = db.begin(f"T{i}")
        db.send(ctx, oids[i % C15_OBJECTS], "add", 1)
        db.commit(ctx)
    db.checkpoint()  # the tail past this point is identical at every scale
    tail_start = wal.next_lsn
    for i in range(C15_TAIL_TXNS):
        ctx = db.begin(f"U{i}")
        db.send(ctx, oids[i % C15_OBJECTS], "add", 1)
        db.commit(ctx)
    loser = db.begin("L")
    db.send(loser, oids[0], "add", 1000)
    wal.crash()
    db.store.crash()
    db.store.close()
    return wal.to_list(), wal.next_lsn - tail_start


def _sweep_rebuild():
    db = ObjectDatabase(page_capacity=64)
    for i in range(C15_OBJECTS):
        db.create(_SweepCounter, oid=f"C{i}")
    return db


def _time_durable_recovery(root, records):
    """Best-of-N durable recovery over a pristine copy of the data dir."""
    best_ms, report, digest = None, None, None
    for n in range(C15_ROUNDS):
        copy = Path(tempfile.mkdtemp(prefix="c15-")) / "data"
        shutil.copytree(root, copy)
        db = _sweep_rebuild()
        wal = WriteAheadLog.from_records(records)
        store = FileBackedPageStore(str(copy), frames=32, default_capacity=64)
        start = time.perf_counter()
        report = recover(wal, db, store=store)
        elapsed = 1000.0 * (time.perf_counter() - start)
        digest = store_digest(db.store)
        store.close()
        best_ms = elapsed if best_ms is None else min(best_ms, elapsed)
        shutil.rmtree(copy.parent)
    return best_ms, report, digest


def _time_memory_recovery(records):
    best_ms, report, digest = None, None, None
    for _ in range(C15_ROUNDS):
        db = _sweep_rebuild()
        wal = WriteAheadLog.from_records(records)
        start = time.perf_counter()
        report = recover(wal, db)
        elapsed = 1000.0 * (time.perf_counter() - start)
        digest = store_digest(db.store)
        best_ms = elapsed if best_ms is None else min(best_ms, elapsed)
    return best_ms, report, digest


def run_history_sweep():
    rows = []
    points = []
    for factor in C15_FACTORS:
        with tempfile.TemporaryDirectory(prefix="c15-live-") as root:
            records, tail = _sweep_history(root, factor)
            d_ms, d_report, d_digest = _time_durable_recovery(root, records)
        m_ms, m_report, m_digest = _time_memory_recovery(records)
        rows.append(
            [
                f"{factor}x",
                len(records),
                tail,
                d_report.redo_applied,
                f"{d_ms:.1f}",
                m_report.redo_applied,
                f"{m_ms:.1f}",
                "yes" if d_digest == m_digest else "NO",
            ]
        )
        points.append(
            {
                "factor": factor,
                "wal_records": len(records),
                "tail_records": tail,
                "durable_redo": d_report.redo_applied,
                "durable_ms": round(d_ms, 2),
                "memory_redo": m_report.redo_applied,
                "memory_ms": round(m_ms, 2),
                "parity": d_digest == m_digest,
            }
        )
    table = render_table(
        [
            "history",
            "wal records",
            "tail",
            "ckpt redo",
            "ckpt ms",
            "genesis redo",
            "genesis ms",
            "digests match",
        ],
        rows,
        title="C15 — recovery cost vs history length "
        f"({C15_OBJECTS} live objects, identical {C15_TAIL_TXNS}-txn tail)",
    )
    return table, points


def test_checkpointed_recovery_is_flat_in_history(benchmark):
    table, points = benchmark.pedantic(run_history_sweep, rounds=1, iterations=1)
    emit("recovery_history_sweep", table)
    assert [p["factor"] for p in points] == list(C15_FACTORS)
    base, largest = points[0], points[-1]
    for p in points:
        assert p["parity"], f"{p['factor']}x: backend digests diverge"
    # The tail past the pinned checkpoint is identical, so conditional redo
    # must do identical work at every scale — exactly flat, no tolerance.
    assert len({p["durable_redo"] for p in points}) == 1
    # Wall time: flat from the checkpoint (<= 1.3x across a 16x history,
    # with a 1ms floor — the absolute times are a few ms, so sub-ms I/O
    # jitter must not fail the gate), linear from genesis (>= 8x).
    durable_ratio = largest["durable_ms"] / max(base["durable_ms"], 1e-9)
    memory_ratio = largest["memory_ms"] / max(base["memory_ms"], 1e-9)
    assert largest["durable_ms"] <= 1.3 * base["durable_ms"] + 1.0, (
        f"from-checkpoint recovery grew {durable_ratio:.2f}x over a "
        f"{C15_FACTORS[-1]}x history"
    )
    assert memory_ratio >= 8.0, (
        f"from-genesis recovery grew only {memory_ratio:.2f}x over a "
        f"{C15_FACTORS[-1]}x history — the baseline is not linear"
    )
    # genesis redo replays all history; checkpointed redo only the tail
    assert largest["memory_redo"] > 8 * largest["durable_redo"]
    write_trajectory(
        {
            "label": "pr9",
            "benchmark": "C15 recovery history sweep",
            "durable_ratio_16x": round(durable_ratio, 3),
            "memory_ratio_16x": round(memory_ratio, 3),
            "points": points,
        }
    )


def test_recovery_scales_with_log(benchmark):
    table, reports = benchmark.pedantic(run_recovery_bench, rounds=1, iterations=1)
    emit("recovery_cost", table)
    assert reports, "no scale produced a crashed run"
    for name, report, deterministic in reports:
        assert deterministic, f"{name}: recovery is not deterministic"
        # Redo dominates the record count: the backward pass touches only
        # the losers' surviving journals, kept short by subcommit truncation.
        assert report.redo_applied >= report.undone + report.reverted
    # at least one scale exercises the semantic half of recovery
    assert any(r.compensations_replayed > 0 for _, r, _ in reports)
