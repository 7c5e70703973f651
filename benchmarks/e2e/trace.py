"""The wrapped-call trace: per-layer numbers from outside the program.

:class:`Tracer` replaces a named list of PUBLIC callables, at class level,
with wrappers that record one span per call — name, start, end, the span
that caused it, and the id of the driver's wave — into a list in memory.
Nothing under ``src/`` is edited; spans inside the program are a later
change.

Self time.  A span's self time is its duration minus what its child spans
cover.  Worker threads run one at a time and park inside
``InterleavedExecutor.checkpoint`` / ``wait_for`` while the others run, so
those two are recorded as *yield* spans: the caller's self time excludes
them, and a worker's top-level span hands the batch span
(``InterleavedExecutor.run`` / ``ShardGroup.run_batch``) only its active
time.  The batch span's self time is therefore what no layer below claims:
the controller loop, the thread hand-offs, thread start and join.

End-to-end metrics are never measured with the wrappers installed.  A traced
run pairs every traced rep with an untraced rep of the same request stream;
the two must produce the same logical schedule, and their wall-time ratio is
the tracing overhead.
"""

from __future__ import annotations

import statistics
import threading
import time

from driver import (
    BenchmarkFailure,
    Rep,
    Workload,
    pooled_latency_ms,
    run_rep,
    spread,
)
from registry import PER_LAYER, WINDOW

# span record layout (a list, mutated once at exit)
NAME, START, END, PARENT, WAVE, CHILD_S, YIELD_S = range(7)

BATCH = ("executor.run", "shard.run_batch")
YIELDS = ("executor.checkpoint", "executor.wait_for")
#: spans the driver thread opens; never children of a running batch
DETACHED = ("service.submit_async",)


def _targets() -> list:
    """(span name, owner, attribute) of every wrapped public callable."""
    import repro.shard.service as shard_service
    from repro.core.certify import OnlineCertifier
    from repro.locking.lock_table import LockingScheduler
    from repro.oodb.database import ObjectDatabase
    from repro.oodb.store import PageImageStore
    from repro.oodb.wal import WriteAheadLog
    from repro.runtime.executor import InterleavedExecutor
    from repro.service.admission import AdmissionController
    from repro.service.service import TransactionService
    from repro.shard.coordinator import Coordinator

    return [
        ("service.submit_async", TransactionService, "submit_async"),
        ("admission.admit", AdmissionController, "admit"),
        ("executor.run", InterleavedExecutor, "run"),
        ("executor.checkpoint", InterleavedExecutor, "checkpoint"),
        ("executor.wait_for", InterleavedExecutor, "wait_for"),
        ("locking.request", LockingScheduler, "request"),
        ("oodb.send", ObjectDatabase, "send"),
        ("oodb.nested_send", ObjectDatabase, "nested_send"),
        ("oodb.commit", ObjectDatabase, "commit"),
        ("oodb.abort", ObjectDatabase, "abort"),
        ("oodb.checkpoint", ObjectDatabase, "checkpoint"),
        ("wal.append", WriteAheadLog, "append"),
        ("wal.sync", WriteAheadLog, "sync"),
        ("store.write_page", PageImageStore, "write_page"),
        ("store.read_page", PageImageStore, "read_page"),
        ("certify.observe_commit", OnlineCertifier, "observe_commit"),
        ("shard.run_batch", shard_service.ShardGroup, "run_batch"),
        ("shard.coordinator_round", Coordinator, "round"),
        # the name shard.service calls, so only its analyses are counted
        ("shard.analyze_system", shard_service, "analyze_system"),
    ]


class Tracer:
    """Installs the wrappers, holds the spans, folds them into totals."""

    def __init__(self):
        self.spans: list = []
        self.recording = False
        self.wave = -1
        #: the open batch span; worker threads' top-level spans report to it
        self.batch = None
        self.started_at = 0.0
        self._local = threading.local()
        self._originals: list = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for name, owner, attribute in _targets():
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        is_batch = name in BATCH
        is_yield = name in YIELDS
        detached = name in DETACHED

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = None if detached else tracer.batch
            span = [name, clock(), 0.0, parent, tracer.wave, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            if is_batch:
                tracer.batch = span
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = end = clock()
                stack.pop()
                if is_batch:
                    tracer.batch = None
                if parent is not None:
                    took = end - span[START]
                    parked = took if is_yield else span[YIELD_S]
                    if stack:
                        parent[CHILD_S] += took
                        parent[YIELD_S] += parked
                    else:
                        # a worker's top-level span under the batch span:
                        # only the time the worker was actually running
                        parent[CHILD_S] += took - parked

        wrapper.__wrapped__ = fn
        return wrapper

    # -- the driver's hooks ----------------------------------------------------

    def start(self) -> None:
        self.wave = -1
        self.started_at = time.perf_counter()
        self.recording = True

    def next_wave(self) -> None:
        self.wave += 1

    def stop(self) -> None:
        self.recording = False

    # -- folding ---------------------------------------------------------------

    def fold(self, into: "Totals", rep: Rep) -> None:
        """Add this rep's spans to the running totals, then drop them."""
        timed_end = self.started_at + rep.wall_s
        waves_with_checkpoint = set()
        observes = []
        for span in self.spans:
            name = span[NAME]
            took = span[END] - span[START]
            row = into.rows.setdefault(name, [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += took
            row[2] += took - span[CHILD_S]
            row[3] += took - span[YIELD_S]
            parent = span[PARENT]
            if name == "oodb.checkpoint":
                if parent is not None and parent[NAME] == "oodb.commit":
                    into.checkpoint_in_commit_s += took
                    waves_with_checkpoint.add(span[WAVE])
            elif name == "certify.observe_commit":
                observes.append(took)
                into.certify_in_region_s += max(
                    0.0, min(span[END], timed_end) - span[START]
                )
        del self.spans[:]
        waves = rep.loop.waves
        if waves_with_checkpoint:
            stalled = max(waves[w] for w in waves_with_checkpoint)
            into.checkpoint_stalls_s.append(stalled - statistics.median(waves))
        if len(observes) >= 32:
            into.certify_growth.append(
                statistics.mean(observes[-16:]) / statistics.mean(observes[:16])
            )


class Totals:
    """Span totals over the traced reps: name -> [count, dur, self, active]."""

    def __init__(self):
        self.rows: dict = {}
        self.checkpoint_in_commit_s = 0.0
        self.certify_in_region_s = 0.0
        self.checkpoint_stalls_s: list = []
        self.certify_growth: list = []

    def _sum(self, column: int, names) -> float:
        return sum(self.rows[n][column] for n in names if n in self.rows)

    def count(self, *names) -> int:
        return self._sum(0, names)

    def dur(self, *names) -> float:
        return self._sum(1, names)

    def self_s(self, *names) -> float:
        return self._sum(2, names)

    def active(self, *names) -> float:
        return self._sum(3, names)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _labelled(counters: dict, family: str) -> float:
    """Sum of a labelled family's children in an ``as_dict`` flattening."""
    return sum(v for k, v in counters.items() if k.split("{")[0] == family)


def _halves_ratio(waves: list) -> float:
    full = len(waves) // 2
    if not full:
        return 0.0
    return statistics.mean(waves[-full:]) / statistics.mean(waves[:full])


def layer_metrics(
    workload: Workload, totals: Totals, traced: list[Rep], untraced: list[Rep],
    probes: dict, split: int,
) -> dict:
    """Every per-layer metric; 0.0 where the workload leaves a layer idle."""
    us, ms = 1e6, 1e3
    commits = sum(r.loop.committed for r in traced)
    submitted = sum(r.loop.submitted for r in traced)
    wall_s = sum(r.wall_s for r in traced)
    reg: dict = {}
    for rep in traced:
        for name, value in rep.counters.items():
            reg[name] = reg.get(name, 0) + value
    batch_s = totals.dur(*BATCH)
    sends = ("oodb.send", "oodb.nested_send")
    rejected = _labelled(reg, "service_rejected_total")
    hits = reg.get("bufferpool_hits_total", 0)
    fast = sum(r.certified[0] for r in traced)
    cache_hits = reg.get("scheduler_commute_cache_hits_total", 0)
    m = {
        "commit_latency_p90_ms": pooled_latency_ms(untraced, 90),
        "service.submit_us": _ratio(
            totals.dur("service.submit_async"), totals.count("service.submit_async")
        ) * us,
        "service.overhead_ms_per_commit": _ratio(
            wall_s - batch_s - totals.certify_in_region_s, commits
        ) * ms,
        "service.batch_fill": _ratio(
            reg.get("service_batch_size_sum", 0),
            WINDOW * reg.get("service_batch_size_count", 0),
        ),
        "admission.admit_us": _ratio(
            totals.dur("admission.admit"), totals.count("admission.admit")
        ) * us,
        "admission.rejected_share": _ratio(
            rejected, rejected + _labelled(reg, "service_admitted_total")
        ),
        "executor.run_ms_per_commit": _ratio(
            totals.self_s("executor.run"), commits
        ) * ms,
        "executor.tick_us": _ratio(batch_s, sum(r.ticks for r in traced)) * us,
        "ticks_per_commit": statistics.median(
            r.ticks / r.loop.committed for r in traced
        ),
        "executor.checkpoints_per_commit": _ratio(
            totals.count("executor.checkpoint"), commits
        ),
        "executor.attempts_per_commit": _ratio(
            sum(r.loop.attempts for r in traced), commits
        ),
        "locking.request_us": _ratio(
            totals.self_s("locking.request"), totals.count("locking.request")
        ) * us,
        "locking.requests_per_commit": _ratio(
            totals.count("locking.request"), commits
        ),
        "locking.waits_per_commit": _ratio(
            reg.get("scheduler_waits_total", 0), commits
        ),
        "locking.wait_ticks_per_commit": _ratio(
            reg.get("lock_wait_ticks_sum", 0), commits
        ),
        "locking.deadlocks_per_commit": _ratio(
            reg.get("scheduler_deadlocks_total", 0), commits
        ),
        "locking.commute_cache_hit_share": _ratio(
            cache_hits, cache_hits + reg.get("lock_table_commute_cache_misses", 0)
        ),
        "oodb.sends_per_commit": _ratio(totals.count(*sends), commits),
        "oodb.send_self_us": _ratio(
            totals.self_s(*sends), totals.count(*sends)
        ) * us,
        "oodb.commit_us": _ratio(
            totals.dur("oodb.commit") - totals.checkpoint_in_commit_s,
            totals.count("oodb.commit"),
        ) * us,
        "oodb.abort_us": _ratio(
            totals.active("oodb.abort"), totals.count("oodb.abort")
        ) * us,
        "oodb.aborts_per_commit": _ratio(totals.count("oodb.abort"), commits),
        "wal.records_per_commit": _ratio(
            _labelled(reg, "wal_records_total"), commits
        ),
        "wal.syncs_per_commit": _ratio(reg.get("wal_syncs_total", 0), commits),
        "wal.bytes_per_commit": _ratio(
            sum(r.wal_bytes for r in traced),
            sum(r.loop.committed for r in traced) + workload.warmup * len(traced),
        ),
        "wal.append_us": _ratio(
            totals.dur("wal.append"), totals.count("wal.append")
        ) * us,
        "wal.sync_us": _ratio(totals.dur("wal.sync"), totals.count("wal.sync")) * us,
        "bufferpool.hit_share": _ratio(
            hits, hits + reg.get("bufferpool_misses_total", 0)
        ),
        "bufferpool.evictions_per_commit": _ratio(
            reg.get("bufferpool_evictions_total", 0), commits
        ),
        "bufferpool.writebacks_per_commit": _ratio(
            reg.get("bufferpool_writebacks_total", 0), commits
        ),
        "store.write_page_us": _ratio(
            totals.dur("store.write_page"), totals.count("store.write_page")
        ) * us,
        "store.read_page_us": _ratio(
            totals.dur("store.read_page"), totals.count("store.read_page")
        ) * us,
        "store.bytes_on_disk": _ratio(
            sum(r.disk_bytes for r in traced), len(traced)
        ),
        "checkpoint.count": _ratio(reg.get("checkpoints_total", 0), len(traced)),
        "checkpoint.ms_mean": _ratio(
            reg.get("checkpoint_duration_ms_sum", 0),
            reg.get("checkpoint_duration_ms_count", 0),
        ),
        "checkpoint.stall_ms_max": max(totals.checkpoint_stalls_s, default=0.0) * ms,
        "certify.observe_ms_per_commit": _ratio(
            totals.dur("certify.observe_commit"),
            totals.count("certify.observe_commit"),
        ) * ms,
        "certify.fast_share": _ratio(
            fast, fast + sum(r.certified[1] for r in traced)
        ),
        "certify.growth_ratio": (
            statistics.mean(totals.certify_growth) if totals.certify_growth else 0.0
        ),
        "shard.run_batch_ms_per_commit": _ratio(
            totals.dur("shard.run_batch"), commits
        ) * ms,
        "shard.analysis_ms_per_commit": _ratio(
            totals.dur("shard.analyze_system"), commits
        ) * ms,
        "shard.rounds_per_batch": _ratio(
            totals.count("shard.coordinator_round"), totals.count("shard.run_batch")
        ),
        "shard.coordinator_round_us": _ratio(
            totals.dur("shard.coordinator_round"),
            totals.count("shard.coordinator_round"),
        ) * us,
        "shard.cross_shard_share": _ratio(
            sum(r.cross_shard for r in traced), submitted
        ),
        "shard.cross_abort_share": _ratio(
            reg.get("coordinator_aborts", 0), submitted
        ),
        "shard.growth_ratio": (
            statistics.mean(_halves_ratio(r.loop.waves) for r in traced)
            if totals.count("shard.run_batch")
            else 0.0
        ),
        "process.cpu_ms_per_commit": _ratio(
            sum(r.cpu_s for r in untraced),
            sum(r.loop.committed for r in untraced),
        ) * ms,
        "trace.overhead_share": _ratio(
            wall_s, sum(r.wall_s for r in untraced)
        ) - 1.0,
        "trace.coverage_share": _ratio(
            totals.dur("service.submit_async") + batch_s
            + totals.certify_in_region_s,
            wall_s,
        ),
        "verify.oracle_s": 0.0,  # the driver fills it in after the oracle rep
        "harness.rep_spread": spread([r.wall_s for r in untraced]),
        "harness.split_waves": float(split),
        **probes,
    }
    missing = {metric.name for metric in PER_LAYER} - set(m)
    if missing:
        raise BenchmarkFailure(f"per-layer metrics not computed: {sorted(missing)}")
    return m


def traced_layers(
    workload: Workload, seed: int, *, commits: int, pairs: int, scratch: str
):
    """``pairs`` untraced/traced rep pairs plus the probes.

    Returns (metrics, the untraced reps, notes)."""
    from probes import run_probes

    totals = Totals()
    traced: list[Rep] = []
    untraced: list[Rep] = []
    split = 0
    for index in range(pairs):
        plain = run_rep(workload, seed, index, commits=commits, scratch=scratch)
        tracer = Tracer()
        tracer.install()
        try:
            rep = run_rep(
                workload, seed, index, commits=commits, scratch=scratch,
                tracer=tracer,
            )
        finally:
            tracer.uninstall()
        if plain.split or rep.split:
            split += 1
            continue
        if (rep.ticks, rep.loop.committed) != (plain.ticks, plain.loop.committed):
            raise BenchmarkFailure(
                f"{workload.name} rep {index}: the traced rep ran another "
                f"schedule ({rep.ticks} ticks vs {plain.ticks} untraced)"
            )
        tracer.fold(totals, rep)
        traced.append(rep)
        untraced.append(plain)
    if not traced:
        raise BenchmarkFailure(f"{workload.name}: every traced pair split a wave")
    metrics = layer_metrics(
        workload, totals, traced, untraced, run_probes(), split
    )
    notes = [
        f"{len(traced)} traced + {len(traced)} untraced reps x {commits} "
        f"commits, same streams, identical logical schedules",
    ]
    if split:
        notes.append(f"{split} rep pairs excluded: a wave split into batches")
    return metrics, untraced, notes
