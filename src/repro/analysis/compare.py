"""Cross-protocol comparison: one workload, four schedulers, many seeds.

This is the engine behind the claim benches (C2, C3): it rebuilds the same
(seeded) workload on a fresh database per protocol and per seed, runs the
interleaved executor, and aggregates :class:`RunMetrics` means.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.analysis.metrics import RunMetrics, metrics_from_result
from repro.locking import make_scheduler
from repro.oodb.database import ObjectDatabase
from repro.runtime.executor import ExecutionResult, InterleavedExecutor
from repro.runtime.program import TransactionProgram

#: builder: (db) -> (anything, programs)
WorkloadBuilder = Callable[[ObjectDatabase], tuple[object, list[TransactionProgram]]]

PROTOCOLS = ("page-2pl", "closed-nested", "multilevel", "open-nested-oo")


@dataclass
class ProtocolComparison:
    """Aggregated means per protocol over all seeds."""

    rows: dict[str, RunMetrics] = field(default_factory=dict)
    results: dict[tuple[str, int], ExecutionResult] = field(default_factory=dict)

    def table_rows(self) -> list[list]:
        return [self.rows[name].row() for name in self.rows]


def run_one(
    workload: WorkloadBuilder,
    protocol: str,
    *,
    layers: dict[str, int] | None = None,
    seed: int = 0,
    page_capacity: int = 256,
) -> ExecutionResult:
    """One (protocol, seed) cell: fresh database, fresh workload, one run."""
    db = ObjectDatabase(
        scheduler=make_scheduler(protocol, layers), page_capacity=page_capacity
    )
    _, programs = workload(db)
    executor = InterleavedExecutor(db, seed=seed)
    return executor.run(programs)


def _mean_metrics(protocol: str, metrics: list[RunMetrics]) -> RunMetrics:
    n = len(metrics)
    return RunMetrics(
        protocol=protocol,
        committed=round(sum(m.committed for m in metrics) / n),
        gave_up=round(sum(m.gave_up for m in metrics) / n),
        makespan=round(sum(m.makespan for m in metrics) / n),
        throughput=sum(m.throughput for m in metrics) / n,
        lock_waits=round(sum(m.lock_waits for m in metrics) / n),
        wait_ticks=round(sum(m.wait_ticks for m in metrics) / n),
        mean_wait_ticks=sum(m.mean_wait_ticks for m in metrics) / n,
        mean_latency=sum(m.mean_latency for m in metrics) / n,
        deadlocks=round(sum(m.deadlocks for m in metrics) / n),
        wounds=round(sum(m.wounds for m in metrics) / n),
        restarts=round(sum(m.restarts for m in metrics) / n),
    )


def compare_protocols(
    workload: WorkloadBuilder,
    *,
    protocols: tuple[str, ...] = PROTOCOLS,
    layers: dict[str, int] | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
    page_capacity: int = 256,
    keep_results: bool = False,
) -> ProtocolComparison:
    """Run the workload under every protocol and seed; aggregate means."""
    comparison = ProtocolComparison()
    for protocol in protocols:
        per_seed = []
        for seed in seeds:
            result = run_one(
                workload,
                protocol,
                layers=layers,
                seed=seed,
                page_capacity=page_capacity,
            )
            per_seed.append(metrics_from_result(result, protocol))
            if keep_results:
                comparison.results[(protocol, seed)] = result
        comparison.rows[protocol] = _mean_metrics(protocol, per_seed)
    return comparison
