"""Experiment A1 — ablation: commutativity granularity.

The gain of oo-serializability comes entirely from the semantic
specifications.  The same executed encyclopedia trace is analyzed under
three registries:

- **semantic** — the full per-type specifications (key-based trees, escrow
  items, list phantoms);
- **read/write** — every method pair conflicts unless both methods are
  literally named reads: oo-serializability degenerates to operation-level
  locking;
- **conflict-all** — no semantics at all: every pair conflicts.

Expected shape: top-level constraints grow monotonically as semantics are
removed; with conflict-all, the oo machinery imposes at least as many
constraints as the conventional page-level criterion.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import emit

from repro.analysis import render_table
from repro.analysis.compare import run_one
from repro.core import analyze_system
from repro.core.commutativity import (
    CommutativityRegistry,
    ConflictAll,
    ReadWriteCommutativity,
)
from repro.core.serializability import conventional_baseline
from repro.workloads import (
    EncyclopediaWorkload,
    build_encyclopedia_workload,
    encyclopedia_layers,
)


def build_trace():
    spec = EncyclopediaWorkload(
        n_transactions=8,
        ops_per_transaction=3,
        preload=30,
        keys_per_page=32,
        think_ticks=1,
        seed=21,
    )
    return run_one(
        functools.partial(build_encyclopedia_workload, spec=spec),
        "open-nested-oo",
        layers=encyclopedia_layers(),
        seed=0,
    )


def constraints_under(result, registry) -> int:
    committed = result.committed_labels
    verdict, _ = analyze_system(result.db.system, registry)
    return len(
        {
            pair
            for pair in verdict.top_order_constraints
            if pair[0] in committed and pair[1] in committed
        }
    )


def run_ablation():
    result = build_trace()
    committed = result.committed_labels
    conventional = len(
        {
            pair
            for pair in conventional_baseline(result.db.system).constraints
            if pair[0] in committed and pair[1] in committed
        }
    )
    semantic = constraints_under(result, result.db.commutativity_registry())
    read_write = constraints_under(
        build_trace(), CommutativityRegistry(default=ReadWriteCommutativity())
    )
    conflict_all = constraints_under(
        build_trace(), CommutativityRegistry(default=ConflictAll())
    )
    rows = [
        ["semantic (paper)", semantic],
        ["read/write only", read_write],
        ["conflict-all", conflict_all],
        ["conventional page-level (reference)", conventional],
    ]
    table = render_table(
        ["commutativity specification", "top-level constraints"],
        rows,
        title="A1 — constraints on committed txns vs specification granularity",
    )
    return table, semantic, read_write, conflict_all, conventional


def test_ablation_commutativity(benchmark):
    table, semantic, read_write, conflict_all, conventional = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    emit("ablation_commutativity", table)
    # semantics can only remove constraints
    assert semantic <= read_write <= conflict_all
    assert semantic < conflict_all  # and they actually do on this workload
    assert semantic <= conventional
