"""Sharded multi-core transaction runtime (cross-shard oo-serializability).

The object space is statically partitioned across N shards
(:mod:`repro.shard.partition`); each shard runs its own lock table, WAL
segment, and Def 10–14 dependency analysis.  Transactions that span shards
two-phase commit through a coordinator that maintains the global Def 15
added-action relation and aborts any prepare that would close a Def 16
cycle (:mod:`repro.shard.coordinator`).  The engine is one copy deep:
the shard-side executor in :mod:`repro.shard.executor`; the shard unit, the
barrier loop, the Def 16 composition and ``ShardGroup`` — the one driver
of the units, behind the service at every shard count and every fuzz cell
(:mod:`repro.fuzz.sharded`) — in :mod:`repro.shard.service`;
presumed-abort segment recovery in :mod:`repro.shard.recovery`.
"""

from repro.runtime.program import base_label
from repro.shard.coordinator import ABORT, COMMIT, Coordinator, canonical_cycle
from repro.shard.executor import ShardExecutor
from repro.shard.partition import (
    ShardMap,
    call_components,
    split_ops,
)
from repro.shard.recovery import (
    ResolutionReport,
    ShardResolution,
    in_doubt_attempts,
    load_decisions,
    resolve_segments,
)
from repro.shard.service import (
    ShardGroup,
    ShardState,
    compose_report,
    drive_epochs,
)

__all__ = [
    "ABORT",
    "COMMIT",
    "Coordinator",
    "ResolutionReport",
    "ShardExecutor",
    "ShardGroup",
    "ShardMap",
    "ShardResolution",
    "ShardState",
    "base_label",
    "call_components",
    "canonical_cycle",
    "compose_report",
    "drive_epochs",
    "in_doubt_attempts",
    "load_decisions",
    "resolve_segments",
    "split_ops",
]
