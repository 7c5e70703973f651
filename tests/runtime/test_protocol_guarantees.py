"""End-to-end protocol guarantees: the theorem tests.

Every concurrency-control protocol in the library claims to admit only
(oo-)serializable executions.  These tests run randomized workloads under
each protocol, project the trace onto the committed transactions, run the
full Definition 10-16 analysis on it — and demand a clean verdict — plus
deep structural integrity of the data structures afterwards.
"""

import functools

import pytest

from repro.analysis.compare import run_one
from repro.core.serializability import conventional_baseline
from repro.oodb.trace import analyze_committed, committed_projection
from repro.structures.verify import verify_encyclopedia
from repro.workloads import (
    EncyclopediaWorkload,
    IndexWorkload,
    build_encyclopedia_workload,
    build_index_workload,
    encyclopedia_layers,
    index_layers,
)

PROTOCOLS = ("page-2pl", "closed-nested", "multilevel", "open-nested-oo", "optimistic-oo")


def _enc_spec(seed):
    return EncyclopediaWorkload(
        n_transactions=6,
        ops_per_transaction=3,
        preload=12,
        key_space=30,
        keys_per_page=8,
        think_ticks=1,
        p_insert=0.3,
        p_search=0.3,
        p_change=0.3,
        p_readseq=0.1,
        seed=seed,
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", [0, 3])
def test_committed_projection_is_oo_serializable(protocol, seed):
    result = run_one(
        functools.partial(build_encyclopedia_workload, spec=_enc_spec(seed)),
        protocol,
        layers=encyclopedia_layers(),
        seed=seed,
    )
    assert result.all_committed or protocol == "optimistic-oo"
    verdict, _ = analyze_committed(result)
    assert verdict.oo_serializable, (
        f"{protocol} produced a non-oo-serializable committed history "
        f"(seed {seed}): {verdict.describe()}"
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_structures_intact_after_contended_run(protocol):
    result = run_one(
        functools.partial(build_encyclopedia_workload, spec=_enc_spec(7)),
        protocol,
        layers=encyclopedia_layers(),
        seed=7,
    )
    db = result.db
    report = verify_encyclopedia(db, "Enc")
    assert report.ok, f"{protocol}: {report.problems}"


@pytest.mark.parametrize("protocol", ("page-2pl", "closed-nested"))
def test_page_protocols_give_conventionally_serializable_histories(protocol):
    """Strict page-level 2PL admits only conflict-serializable schedules;
    the committed projection must pass even the conventional test."""
    spec = IndexWorkload(
        n_transactions=6,
        ops_per_transaction=3,
        p_insert=0.4,
        preload=20,
        key_space=60,
        keys_per_page=8,
        seed=5,
    )
    result = run_one(
        functools.partial(build_index_workload, spec=spec),
        protocol,
        layers=index_layers(),
        seed=2,
    )
    projection = committed_projection(result.db.system, result.committed_labels)
    assert conventional_baseline(projection).serializable


def test_committed_projection_contents():
    result = run_one(
        functools.partial(build_encyclopedia_workload, spec=_enc_spec(1)),
        "open-nested-oo",
        layers=encyclopedia_layers(),
        seed=1,
    )
    projection = committed_projection(result.db.system, result.committed_labels)
    assert {t.label for t in projection.tops} == result.committed_labels
    # shared nodes: the projection sees the same seq stamps
    original = {id(a) for a in result.db.system.all_actions()}
    assert all(id(a) in original for a in projection.all_actions())
