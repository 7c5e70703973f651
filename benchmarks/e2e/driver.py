"""The closed-loop driver: one workload, measured inside one pinned process.

``run.py`` starts this module in a fresh subprocess per workload.  It talks
to the program through public calls only — ``TransactionService`` and its
``submit_async`` / ``pending.wait`` / ``audit`` / ``certify`` /
``history_result``, the metrics registry's ``as_dict``, and for the probes
``ServiceServer`` / ``ServiceClient`` — and prints one JSON object.

Load shape: ONE driver thread keeps a window of 8 = ``batch_max`` requests
in flight.  It submits a wave of 8, waits for every reply, and refills the
window.  The engine settles a batch together, so 8 free-running callers
would synchronise into the same waves anyway; a single driver makes the
batch composition — and with it the seeded schedule and the amount of work
— a function of the inputs alone.

One rep = ``gc.collect()``, construct + ``start()`` + W warm-up commits
(``setup_s``), N timed commits, ``stop()``.  N is fixed per workload
because cost per commit grows with history; ``--seconds`` changes the rep
count, never N.  Rep ``r`` of seed ``s`` draws its requests from
``random.Random(repr((s, "load", r)))``: every rep is a different request
stream, so a run averages over streams as well as over host noise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from registry import (  # noqa: E402
    HOSTED_SEED,
    MAX_RESUBMITS,
    ORACLE_COMMITS,
    TENANTS,
    WINDOW,
    WORKLOADS,
    Workload,
)

#: a reply that takes longer than this is a hang, not a slow commit
REPLY_TIMEOUT_S = 120.0


class BenchmarkFailure(Exception):
    """An output check failed: the run prints no metrics and exits non-zero."""


@dataclass
class Request:
    ops: list
    first_submit: float = 0.0
    submits: int = 0


@dataclass
class LoopResult:
    """What one closed-loop pass (warm-up or timed part) observed."""

    submitted: int = 0
    committed: int = 0
    failed: int = 0
    #: first submit -> committed reply, seconds, one per committed request
    latencies: list = field(default_factory=list)
    #: first submit -> last reply of each wave, seconds
    waves: list = field(default_factory=list)
    #: executor attempts the committed replies report (restarts + 1)
    attempts: int = 0


def traffic(seed: int, rep: int, catalog: dict, count: int) -> list[Request]:
    from repro.service.client import generate_ops

    rng = random.Random(repr((seed, "load", rep)))
    return [Request(generate_ops(rng, catalog)) for _ in range(count)]


def drive(service, requests: list[Request], tracer=None) -> LoopResult:
    """Commit every request: waves of up to 8, resubmitting ``gave_up``."""
    out = LoopResult()
    todo = deque(requests)
    clock = time.perf_counter
    while todo:
        wave = [todo.popleft() for _ in range(min(WINDOW, len(todo)))]
        if tracer is not None:
            tracer.next_wave()
        inflight = []
        wave_start = clock()
        for slot, request in enumerate(wave):
            begun = clock()
            rejected, pending = service.submit_async(
                TENANTS[slot % len(TENANTS)], request.ops
            )
            if rejected is not None:
                raise BenchmarkFailure(f"admission answered {rejected}")
            if not request.submits:
                request.first_submit = begun
            request.submits += 1
            inflight.append((request, pending))
        out.submitted += len(wave)
        again = []
        for request, pending in inflight:
            reply = pending.wait(REPLY_TIMEOUT_S)
            status = reply.get("status")
            if status == "committed":
                out.committed += 1
                out.attempts += reply["attempts"]
                out.latencies.append(clock() - request.first_submit)
            elif status == "gave_up" and request.submits <= MAX_RESUBMITS:
                again.append(request)
            elif status == "gave_up":
                out.failed += 1
            else:
                raise BenchmarkFailure(f"request answered {reply}")
        out.waves.append(clock() - wave_start)
        todo.extendleft(reversed(again))
    return out


def quiesce(service, commits: int) -> None:
    """Wait until the online certifier has seen ``commits`` commits.

    The engine answers a batch before it certifies it, so the last wave's
    certification — the most expensive one, cost grows with history — runs
    after the last reply.  The clocks stop only once it is done; otherwise a
    rep of N commits would be charged for N - 8 certifications.
    """
    if not service.config.online_certify or service.config.shards > 1:
        return
    while True:
        # blocks on the certifier's lock while the engine is certifying
        report = service.certification()
        if report.fast_commits + report.escalated_commits >= commits:
            return
        time.sleep(0.0005)


def registry_totals(service) -> dict:
    """``db.metrics.as_dict()``, summed over the shards when there are any,
    plus two counts the registry does not carry: the lock tables'
    commute-cache misses and the coordinator's aborts."""
    sharded = service.config.shards > 1
    dbs = service.db.dbs if sharded else [service.db]
    totals = dict(service.db.metrics.as_dict()) if sharded else {}
    misses = 0
    for db in dbs:
        for name, value in db.metrics.as_dict().items():
            totals[name] = totals.get(name, 0) + value
        misses += db.scheduler.table.commute_cache_misses
    totals["lock_table_commute_cache_misses"] = misses
    if sharded:
        stats = service.db.stats()
        totals["coordinator_aborts"] = (
            stats["cycle_aborts"] + stats["deadlock_aborts"]
        )
    return totals


def delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


@dataclass
class Rep:
    index: int
    setup_s: float
    wall_s: float
    cpu_s: float
    ticks: int
    loop: LoopResult
    #: registry counters accumulated by the timed part only
    counters: dict
    #: timed requests whose sends touch more than one shard
    cross_shard: int = 0
    #: commits the online certifier took on its fast path / escalated, over
    #: the whole rep: it escalates for good within the warm-up wave
    certified: tuple = (0, 0)
    wal_bytes: int = 0
    disk_bytes: int = 0
    oracle_s: float = 0.0

    @property
    def split(self) -> bool:
        """A wave the engine drained as more than one batch voids the rep:
        its schedule is not the one the inputs define."""
        return self.counters["service_batches_total"] != len(self.loop.waves)


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(root)
        for name in names
    )


def recovered_digest(service, data_dir: str) -> str:
    """Recover the stopped service's data dir into a fresh database."""
    from repro.fuzz.generator import build_workload
    from repro.oodb.database import ObjectDatabase
    from repro.oodb.store import FileBackedPageStore
    from repro.oodb.wal import WriteAheadLog, recover, store_digest

    wal_path = os.path.join(data_dir, "wal.jsonl")
    wal = WriteAheadLog.load(wal_path)
    wal.path = wal_path
    store = FileBackedPageStore(data_dir, frames=service.config.frames)
    db = ObjectDatabase(page_capacity=4 * service.spec.key_space + 16)
    build_workload(db, service.spec)
    try:
        recover(wal, db, store=store)
        return store_digest(db.store)
    finally:
        store.close()
        wal.close()


def run_rep(
    workload: Workload,
    seed: int,
    index: int,
    *,
    commits: int,
    scratch: str,
    tracer=None,
    oracle: bool = False,
) -> Rep:
    """One rep; raises :class:`BenchmarkFailure` when an output is wrong."""
    from repro.oodb.wal import store_digest
    from repro.service.service import ServiceConfig, TransactionService

    gc.collect()
    data_dir = tempfile.mkdtemp(dir=scratch) if workload.durable else None
    config = dict(workload.config)
    if data_dir is not None:
        config["data_dir"] = data_dir
    clock = time.perf_counter
    try:
        begun = clock()
        service = TransactionService(ServiceConfig(seed=HOSTED_SEED, **config))
        service.start()
        setup_s = clock() - begun
        try:
            catalog = service.catalog()
            if workload.hot:
                catalog = {oid: catalog[oid] for oid in sorted(catalog)[:2]}
            requests = traffic(seed, index, catalog, workload.warmup + commits)
            begun = clock()
            warm = drive(service, requests[: workload.warmup])
            quiesce(service, warm.committed)
            setup_s += clock() - begun
            ticks_before = service.history_result().makespan
            counters_before = registry_totals(service)
            if tracer is not None:
                tracer.start()
            cpu_before = time.process_time()
            begun = clock()
            loop = drive(service, requests[workload.warmup :], tracer)
            quiesce(service, warm.committed + loop.committed)
            wall_s = clock() - begun
            cpu_s = time.process_time() - cpu_before
        finally:
            service.stop()
            if tracer is not None:
                tracer.stop()
        counters_after = registry_totals(service)
        counters = delta(counters_after, counters_before)
        rep = Rep(
            index=index,
            setup_s=setup_s,
            wall_s=wall_s,
            cpu_s=cpu_s,
            ticks=service.history_result().makespan - ticks_before,
            loop=loop,
            counters=counters,
            certified=(
                counters_after.get("certify_fast_commits_total", 0),
                counters_after.get("certify_escalated_commits_total", 0),
            ),
        )
        if service.config.shards > 1:
            shard_of = service.db.shard_map.shard_of
            rep.cross_shard = sum(
                len({shard_of(op[1]) for op in r.ops if op[0] == "send"}) > 1
                for r in requests[workload.warmup :]
            )
        label = f"{workload.name} rep {index}"
        if warm.failed or warm.committed != workload.warmup:
            raise BenchmarkFailure(f"{label}: warm-up did not commit")
        if loop.committed + loop.failed != commits:
            raise BenchmarkFailure(f"{label}: answered != submitted")
        audit = service.audit()
        if not audit["ok"]:
            raise BenchmarkFailure(f"{label}: ledger audit failed: {audit}")
        if service.config.online_certify and service.config.shards == 1:
            if not service.certify().oo_serializable:
                raise BenchmarkFailure(f"{label}: online certifier: violation")
        if data_dir is not None:
            rep.wal_bytes = os.path.getsize(os.path.join(data_dir, "wal.jsonl"))
            rep.disk_bytes = _tree_bytes(os.path.join(data_dir, "pages"))
            live = store_digest(service.db.store)
            if recovered_digest(service, data_dir) != live:
                raise BenchmarkFailure(f"{label}: recovery digest differs")
        if oracle:
            begun = clock()
            report = (
                service.certify()
                if service.config.shards > 1
                else service.certify(exact=True)
            )
            rep.oracle_s = clock() - begun
            if not report.oo_serializable:
                raise BenchmarkFailure(
                    f"{label}: exact oracle: {report.description}"
                )
        return rep
    finally:
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)


def rep_count(workload: Workload, seconds: float, quick: bool) -> int:
    return 1 if quick else max(3, round(seconds / workload.rep_s))


def spread(values: list) -> float:
    """(q75 - q25) / median, the driver's own measure of steadiness."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def pooled_latency_ms(reps: list[Rep], q: float) -> float:
    """First submit -> committed reply, pooled over the reps (nearest rank)."""
    from repro.service.client import percentile

    pooled = [lat for rep in reps for lat in rep.loop.latencies]
    return percentile(pooled, q) * 1e3


def end_to_end(reps: list[Rep]) -> dict:
    median = statistics.median
    submitted = sum(rep.loop.submitted for rep in reps)
    committed = sum(rep.loop.committed for rep in reps)
    return {
        "commits_per_s": median(r.loop.committed / r.wall_s for r in reps),
        "commit_latency_p50_ms": pooled_latency_ms(reps, 50),
        "committed_share": committed / submitted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": median(r.setup_s for r in reps),
    }


def measure(
    workload: Workload,
    seed: int,
    *,
    seconds: float,
    quick: bool,
    trace: bool,
    scratch: str,
) -> dict:
    """Run the workload; returns the result the runner prints."""
    commits = max(WINDOW, workload.commits // 4) if quick else workload.commits
    count = rep_count(workload, seconds, quick)
    notes = []
    if trace:
        from trace import traced_layers

        metrics, reps, notes = traced_layers(
            workload, seed, commits=commits, pairs=max(1, count // 3),
            scratch=scratch,
        )
    else:
        reps = [
            run_rep(workload, seed, index, commits=commits, scratch=scratch)
            for index in range(count)
        ]
        split = [rep.index for rep in reps if rep.split]
        if split:
            notes.append(f"reps {split} excluded: a wave split into batches")
        reps = [rep for rep in reps if not rep.split]
        if not reps:
            raise BenchmarkFailure(f"{workload.name}: every rep split a wave")
        metrics = end_to_end(reps)
        samples = sum(len(rep.loop.latencies) for rep in reps)
        notes.append(
            f"{len(reps)} reps x {commits} commits in "
            f"{sum(r.setup_s + r.wall_s for r in reps):.1f} s, {samples} latency "
            f"samples, rep wall spread {spread([r.wall_s for r in reps]):.3f}"
        )
        notes.append(
            "reported by --trace: ticks per commit "
            f"{statistics.median(r.ticks / r.loop.committed for r in reps):.4f}"
            f", commit latency p90 {pooled_latency_ms(reps, 90):.4f} ms"
        )
    # Last, so that its memory is not in peak_rss_mb: one untimed rep of
    # stream 0 from a cold start, judged by the exact Def 10-16 oracle.  The
    # oracle cannot run at full N (2.4 s at 96 commits, 81 s at 400).
    judged = min(ORACLE_COMMITS, commits)
    oracle_s = run_rep(
        replace(workload, warmup=0), seed, 0, commits=judged, scratch=scratch,
        oracle=True,
    ).oracle_s
    if trace:
        metrics["verify.oracle_s"] = oracle_s
    notes.append(f"exact oracle: {judged} commits clean in {oracle_s:.2f} s")
    return {
        "workload": workload.name,
        "correct": True,
        "attempted": sum(r.loop.committed + r.loop.failed for r in reps),
        "failed": sum(r.loop.failed for r in reps),
        "metrics": metrics,
        "notes": notes,
        "reps": [
            {"setup_s": r.setup_s, "wall_s": r.wall_s, "ticks": r.ticks,
             "committed": r.loop.committed, "submitted": r.loop.submitted}
            for r in reps
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    try:
        result = measure(
            WORKLOADS[args.workload],
            args.seed,
            seconds=args.seconds,
            quick=args.quick,
            trace=bool(args.trace),
            scratch=args.scratch,
        )
    except BenchmarkFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Run under the importable name: trace.py imports this module too, and
    # the failure it raises must be the class main() catches.
    import driver

    sys.exit(driver.main())
