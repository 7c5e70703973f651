"""Experiment C10 — the hot-path performance trajectory.

Four measurements, one machine-readable artifact:

1. **Campaign throughput** — the smoke fuzz campaign serial vs ``--jobs``,
   with the parallel report asserted *identical* to the serial one (the
   byte-identical-merge guarantee, exercised here on the tally level).
   The >=2x speedup claim is only asserted on machines with >=4 CPUs; the
   measured speedup is recorded either way.
2. **Lock-table ops/sec** — the indexed :class:`LockTable` against a naive
   full-scan reference (the seed implementation's shape) on the same
   release/reown/held_by operation sequence, at two table sizes.
3. **Commutativity checks/sec** — ``conflicting()`` with the memo cache on
   vs off, over a predicate-valued matrix spec (the paper's B+-tree leaf).
4. **WAL append throughput** — append+sync records/sec in file mode
   (one write barrier per sync point) and memory mode.
5. **Buffer pool** — hit rate and ops/sec with frames at 1/4, 1/2 and 1x
   of the working set, plus the in-memory hot path's cost for the no-op
   durability surface (``note_write`` on the plain ``PageStore`` must be
   within noise of not calling it at all).

Results go to the usual ``benchmarks/results/`` table *and* to
``BENCH_perf.json`` at the repo root: a labelled trajectory (label from
``$BENCH_PERF_LABEL``, default ``pr3``) so successive PRs can append their
own entry and regressions show up as numbers, not anecdotes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import emit, write_trajectory

from repro.analysis import render_table
from repro.catalog import GeneratorProfile
from repro.core.actions import Invocation
from repro.core.commutativity import MatrixCommutativity
from repro.core.transactions import TransactionSystem
from repro.fuzz.driver import run_campaign
from repro.fuzz.parallel import available_cpus
from repro.locking.lock_table import Lock, LockTable
from repro.oodb.context import TransactionContext
from repro.oodb.pages import PageStore
from repro.oodb.store import FileBackedPageStore
from repro.oodb.wal import WriteAheadLog

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_perf.json"

CAMPAIGN_SEEDS = list(range(1, 13))
CAMPAIGN_JOBS = 4


# ---------------------------------------------------------------------------
# 1. campaign throughput, serial vs sharded
# ---------------------------------------------------------------------------


def _campaign_section() -> dict:
    profile = GeneratorProfile.smoke()

    start = time.perf_counter()
    serial = run_campaign(seeds=CAMPAIGN_SEEDS, profile=profile, jobs=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_campaign(
        seeds=CAMPAIGN_SEEDS, profile=profile, jobs=CAMPAIGN_JOBS
    )
    parallel_s = time.perf_counter() - start

    # the merge guarantee: identical accounting, not merely "close"
    assert serial.ok and parallel.ok
    assert serial.seeds_run == parallel.seeds_run
    assert serial.table() == parallel.table()

    runs = sum(t.runs for t in serial.tallies.values())
    return {
        "seeds": len(CAMPAIGN_SEEDS),
        "runs": runs,
        "jobs": CAMPAIGN_JOBS,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "serial_runs_per_s": round(runs / serial_s, 2),
        "parallel_runs_per_s": round(runs / parallel_s, 2),
        "speedup": round(serial_s / parallel_s, 3),
        "report_identical": True,
    }


# ---------------------------------------------------------------------------
# 2. lock-table ops/sec, indexed vs naive full-scan reference
# ---------------------------------------------------------------------------


class NaiveLockTable:
    """The seed implementation's shape: one dict keyed by object, every
    bulk operation a full scan of the whole table."""

    def __init__(self) -> None:
        self._locks: dict[str, list[Lock]] = {}

    def add(self, lock: Lock) -> None:
        self._locks.setdefault(lock.obj, []).append(lock)

    def release_owned_by(self, owner) -> set:
        released = set()
        for obj, locks in list(self._locks.items()):
            kept = [l for l in locks if l.owner is not owner]
            if len(kept) != len(locks):
                released.add(obj)
                if kept:
                    self._locks[obj] = kept
                else:
                    del self._locks[obj]
        return released

    def reown(self, owner, new_owner) -> int:
        moved = 0
        for locks in self._locks.values():
            for lock in locks:
                if lock.owner is owner:
                    lock.owner = new_owner
                    moved += 1
        return moved

    def held_by(self, ctx) -> list[Lock]:
        return [
            lock
            for locks in self._locks.values()
            for lock in locks
            if lock.ctx is ctx
        ]


def _lock_population(n_txns: int, locks_per_txn: int):
    """(ctx, owner-node, lock-arguments) triples for a synthetic table."""
    system = TransactionSystem()
    population = []
    for t in range(n_txns):
        ctx = TransactionContext(system.transaction(f"T{t}"))
        node = ctx.txn.root.call(f"O{t}", "m")
        locks = [
            (f"P{(t * locks_per_txn + j) % (n_txns * locks_per_txn // 2)}", j)
            for j in range(locks_per_txn)
        ]
        population.append((ctx, node, locks))
    return population


def _run_lock_ops(table, population) -> int:
    """The bulk-operation sequence both tables execute: fill, then per
    transaction held_by -> reown -> release.  Returns the op count."""
    for ctx, node, locks in population:
        for obj, j in locks:
            table.add(
                Lock(
                    obj=obj,
                    invocation=Invocation(obj, "write", (j,)),
                    ctx=ctx,
                    owner=node,
                    requester=node,
                )
            )
    ops = 0
    for ctx, node, _ in population:
        table.held_by(ctx)
        table.reown(node, ctx.txn.root)
        table.release_owned_by(ctx.txn.root)
        ops += 3
    return ops


def _lock_table_section() -> dict:
    rows = []
    for n_txns, locks_per_txn in ((100, 10), (200, 20)):
        population = _lock_population(n_txns, locks_per_txn)
        timings = {}
        for name, factory in (("naive", NaiveLockTable), ("indexed", LockTable)):
            start = time.perf_counter()
            ops = _run_lock_ops(factory(), population)
            timings[name] = time.perf_counter() - start
        rows.append(
            {
                "locks": n_txns * locks_per_txn,
                "bulk_ops": ops,
                "naive_s": round(timings["naive"], 4),
                "indexed_s": round(timings["indexed"], 4),
                "indexed_ops_per_s": round(ops / timings["indexed"], 1),
                "speedup": round(timings["naive"] / timings["indexed"], 2),
            }
        )
    return {"sizes": rows}


# ---------------------------------------------------------------------------
# 3. commutativity checks/sec, memo cache on vs off
# ---------------------------------------------------------------------------

#: the paper's B+-tree leaf (Example 1): predicate entries, the expensive
#: kind the cache is for
LEAF_SPEC = MatrixCommutativity(
    {
        ("insert", "insert"): lambda a, b: a.args[0] != b.args[0],
        ("insert", "search"): lambda a, b: a.args[0] != b.args[0],
        ("search", "search"): True,
    }
)

N_HOLDERS = 32
N_ROUNDS = 2_000


def _commute_workload():
    system = TransactionSystem()
    table_args = []
    for t in range(N_HOLDERS):
        ctx = TransactionContext(system.transaction(f"H{t}"))
        table_args.append((ctx, Invocation("leaf", "insert", (t % 8,))))
    requester = TransactionContext(system.transaction("R"))
    requests = [Invocation("leaf", "insert", (k % 8,)) for k in range(N_ROUNDS)]
    return table_args, requester, requests


def _run_commute(table: LockTable, holders, requester, requests) -> list[int]:
    for ctx, invocation in holders:
        table.add(
            Lock(
                obj="leaf",
                invocation=invocation,
                ctx=ctx,
                owner=ctx.txn.root,
            )
        )
    return [
        len(table.conflicting(requester, request, LEAF_SPEC))
        for request in requests
    ]


def _commute_cache_section() -> dict:
    holders, requester, requests = _commute_workload()
    results = {}
    timings = {}
    tables = {"uncached": LockTable(commute_cache_size=0), "cached": LockTable()}
    for name, table in tables.items():
        start = time.perf_counter()
        results[name] = _run_commute(table, holders, requester, requests)
        timings[name] = time.perf_counter() - start

    # the cache must change nothing but the clock
    assert results["cached"] == results["uncached"]
    cached = tables["cached"]
    assert cached.commute_cache_hits > 0
    checks = len(requests) * N_HOLDERS
    return {
        "checks": checks,
        "uncached_s": round(timings["uncached"], 4),
        "cached_s": round(timings["cached"], 4),
        "uncached_checks_per_s": round(checks / timings["uncached"], 1),
        "cached_checks_per_s": round(checks / timings["cached"], 1),
        "speedup": round(timings["uncached"] / timings["cached"], 2),
        "cache_hits": cached.commute_cache_hits,
        "cache_misses": cached.commute_cache_misses,
        "hit_rate": round(
            cached.commute_cache_hits
            / (cached.commute_cache_hits + cached.commute_cache_misses),
            4,
        ),
    }


# ---------------------------------------------------------------------------
# 4. WAL append throughput
# ---------------------------------------------------------------------------

WAL_RECORDS = 20_000
WAL_SYNC_EVERY = 50


def _wal_throughput(wal: WriteAheadLog) -> float:
    start = time.perf_counter()
    for i in range(WAL_RECORDS):
        wal.append({"type": "set", "txn": f"T{i % 8}", "page": i % 64, "value": i})
        if (i + 1) % WAL_SYNC_EVERY == 0:
            wal.sync()
    wal.sync()
    elapsed = time.perf_counter() - start
    wal.close()
    assert len(wal.records) == WAL_RECORDS
    return elapsed


def _wal_section() -> dict:
    memory_s = _wal_throughput(WriteAheadLog())
    with tempfile.TemporaryDirectory() as tmp:
        file_s = _wal_throughput(WriteAheadLog(str(Path(tmp) / "bench.wal")))
    return {
        "records": WAL_RECORDS,
        "sync_every": WAL_SYNC_EVERY,
        "memory_s": round(memory_s, 4),
        "file_s": round(file_s, 4),
        "memory_records_per_s": round(WAL_RECORDS / memory_s, 1),
        "file_records_per_s": round(WAL_RECORDS / file_s, 1),
    }


# ---------------------------------------------------------------------------
# 5. buffer pool: frames vs working set, and the in-memory no-op surface
# ---------------------------------------------------------------------------

POOL_WORKING_SET = 64
POOL_OPS = 30_000


def _pool_access_pattern():
    """A seeded 90/10-skewed read/write pattern over the working set."""
    import random

    rng = random.Random(11)
    hot = list(range(POOL_WORKING_SET // 8))
    pattern = []
    for i in range(POOL_OPS):
        n = rng.choice(hot) if rng.random() < 0.9 else rng.randrange(POOL_WORKING_SET)
        pattern.append((f"P{n}", i))
    return pattern


def _run_pool(store, pattern) -> float:
    start = time.perf_counter()
    for page_id, i in pattern:
        page = store.get(page_id)
        page.write("total", i)
        store.note_write(page_id, i)
    return time.perf_counter() - start


def _bufferpool_section() -> dict:
    pattern = _pool_access_pattern()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for fraction, frames in (
            ("1/4", POOL_WORKING_SET // 4),
            ("1/2", POOL_WORKING_SET // 2),
            ("1x", POOL_WORKING_SET),
        ):
            root = Path(tmp) / f"f{frames}"
            store = FileBackedPageStore(str(root), frames=frames)
            for n in range(POOL_WORKING_SET):
                store.allocate(f"P{n}")
            store.flush_dirty()
            elapsed = _run_pool(store, pattern)
            store.close()
            pool = store.pool
            accesses = pool.hits + pool.misses
            rows.append(
                {
                    "frames": fraction,
                    "hit_rate": round(pool.hits / accesses, 4),
                    "evictions": pool.evictions,
                    "ops_per_s": round(len(pattern) / elapsed, 1),
                }
            )

    # the no-op durability surface on the in-memory hot path
    bare = PageStore(default_capacity=16)
    surfaced = PageStore(default_capacity=16)
    for n in range(POOL_WORKING_SET):
        bare.allocate(f"P{n}")
        surfaced.allocate(f"P{n}")
    start = time.perf_counter()
    for page_id, i in pattern:
        bare.get(page_id).write("total", i)
    bare_s = time.perf_counter() - start
    surfaced_s = _run_pool(surfaced, pattern)

    return {
        "working_set": POOL_WORKING_SET,
        "ops": POOL_OPS,
        "sweep": rows,
        "memory_bare_s": round(bare_s, 4),
        "memory_surfaced_s": round(surfaced_s, 4),
        "memory_overhead": round(surfaced_s / bare_s, 3),
    }


# ---------------------------------------------------------------------------
# the trajectory artifact
# ---------------------------------------------------------------------------


def _write_trajectory(entry: dict) -> dict:
    """Append/replace this label's entry in ``BENCH_perf.json``."""
    return write_trajectory(entry)


def run_perf_bench() -> dict:
    return {
        "label": os.environ.get("BENCH_PERF_LABEL", "pr3"),
        # Affinity/cgroup-aware: the ">=2x on >=4 CPUs" gate below must not
        # fire on a container that advertises 64 host cores but runs on 2.
        "cpus": available_cpus(),
        "python": platform.python_version(),
        "campaign": _campaign_section(),
        "lock_table": _lock_table_section(),
        "commute_cache": _commute_cache_section(),
        "wal": _wal_section(),
        "bufferpool": _bufferpool_section(),
    }


def _render(entry: dict) -> str:
    campaign = entry["campaign"]
    commute = entry["commute_cache"]
    wal = entry["wal"]
    pool = entry["bufferpool"]
    rows = [
        [
            "campaign (smoke)",
            f"{campaign['runs']} runs",
            f"{campaign['serial_runs_per_s']}/s serial",
            f"{campaign['parallel_runs_per_s']}/s --jobs {campaign['jobs']}",
            f"x{campaign['speedup']}",
        ],
        *[
            [
                f"lock table ({row['locks']} locks)",
                f"{row['bulk_ops']} bulk ops",
                f"{row['naive_s']}s naive",
                f"{row['indexed_s']}s indexed",
                f"x{row['speedup']}",
            ]
            for row in entry["lock_table"]["sizes"]
        ],
        [
            "commute checks",
            f"{commute['checks']} checks",
            f"{commute['uncached_checks_per_s']}/s uncached",
            f"{commute['cached_checks_per_s']}/s cached "
            f"(hit rate {commute['hit_rate']})",
            f"x{commute['speedup']}",
        ],
        [
            "wal append+sync",
            f"{wal['records']} records",
            f"{wal['memory_records_per_s']}/s memory",
            f"{wal['file_records_per_s']}/s file",
            "-",
        ],
        *[
            [
                f"buffer pool ({row['frames']} frames)",
                f"{pool['ops']} ops / {pool['working_set']} pages",
                f"hit rate {row['hit_rate']}",
                f"{row['evictions']} evictions",
                f"{row['ops_per_s']}/s",
            ]
            for row in pool["sweep"]
        ],
        [
            "in-memory durability surface",
            f"{pool['ops']} ops",
            f"{pool['memory_bare_s']}s bare",
            f"{pool['memory_surfaced_s']}s with note_write",
            f"x{pool['memory_overhead']}",
        ],
    ]
    return render_table(
        ["hot path", "work", "before / serial", "after / parallel", "speedup"],
        rows,
        title=f"C10 — perf trajectory, label={entry['label']} "
        f"(cpus={entry['cpus']})",
    )


def test_perf_trajectory(benchmark):
    entry = benchmark.pedantic(run_perf_bench, rounds=1, iterations=1)
    _write_trajectory(entry)
    emit("perf_trajectory", _render(entry))

    # hot-path claims that hold on any machine
    sizes = entry["lock_table"]["sizes"]
    assert sizes[-1]["speedup"] >= 2.0, (
        "indexed lock table should beat the full-scan reference by >=2x "
        f"at {sizes[-1]['locks']} locks, got x{sizes[-1]['speedup']}"
    )
    assert entry["commute_cache"]["hit_rate"] > 0.5
    # buffer pool: hit rate climbs with frames, and frames == working set
    # means no capacity misses after warm-up
    sweep = entry["bufferpool"]["sweep"]
    hit_rates = [row["hit_rate"] for row in sweep]
    assert hit_rates == sorted(hit_rates), (
        f"hit rate should be monotone in frames, got {hit_rates}"
    )
    assert hit_rates[-1] > 0.99, (
        f"frames == working set should only cold-miss, got {hit_rates[-1]}"
    )
    assert sweep[-1]["evictions"] == 0
    # the skewed pattern keeps even the smallest pool mostly hitting
    assert hit_rates[0] > 0.8
    # the no-op durability surface must be noise on the in-memory hot path
    assert entry["bufferpool"]["memory_overhead"] < 2.0, (
        "no-op note_write should be within noise of the bare in-memory "
        f"path, got x{entry['bufferpool']['memory_overhead']}"
    )
    # the campaign speedup claim needs real cores behind the workers
    if entry["cpus"] >= 4:
        assert entry["campaign"]["speedup"] >= 2.0, (
            "campaign --jobs 4 should be >=2x on a >=4-core machine, "
            f"got x{entry['campaign']['speedup']}"
        )
