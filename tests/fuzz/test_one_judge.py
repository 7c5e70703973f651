"""One exact judge: every caller that turns a committed history into a
verdict goes through :func:`repro.fuzz.oracle.judge_committed`.

A one-shard :class:`~repro.shard.service.ShardGroup` and the service's
``certify(exact=True)`` must report exactly what
:func:`~repro.fuzz.oracle.check_history` reports for the same history —
field for field, description included — and one judgement runs the
conventional page-conflict baseline once.
"""

import random

import pytest

from repro.core import serializability
from repro.fuzz import oracle
from repro.fuzz.generator import GeneratorProfile, generate
from repro.fuzz.oracle import Ablation, check_history, strictness_for
from repro.service.client import generate_ops
from repro.service.service import ServiceConfig, TransactionService
from repro.shard.runtime import CELL_MAX_TICKS
from repro.shard.service import ShardGroup

SMOKE = GeneratorProfile.smoke()
#: one protocol judged with the strict closure, one early-release protocol
PROTOCOLS = ("page-2pl", "open-nested-oo")


def _one_batch_group(seed: int, protocol: str, n_shards: int) -> ShardGroup:
    """A fresh group that ran the spec's programs as one batch."""
    spec = generate(seed, SMOKE if n_shards == 1 else SMOKE.grouped(n_shards))
    group = ShardGroup(
        spec, protocol, n_shards, seed=seed, max_ticks=CELL_MAX_TICKS
    )
    group.run_batch(
        [
            {"label": p.label, "ops": p.ops, "max_restarts": p.max_restarts}
            for p in spec.programs
        ]
    )
    return group


def _first_leaf(seed: int) -> Ablation:
    return Ablation(object_name=generate(seed, SMOKE).leaf_objects[0].name)


@pytest.mark.parametrize("ablate", [False, True], ids=["plain", "ablated"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_one_shard_group_certify_is_check_history(protocol, ablate):
    seed = 4
    ablation = _first_leaf(seed) if ablate else None
    # Two identical runs: each history is judged once (the Definition 5
    # extension mutates the committed trees it judges).
    reference = _one_batch_group(seed, protocol, 1).units[0].result
    expected = check_history(
        reference, ablation, strict_cross_object=strictness_for(protocol)
    )
    group = _one_batch_group(seed, protocol, 1)
    actual = group.certify(
        ablation, gave_up=len(group.units[0].result.gave_up)
    )
    assert actual == expected
    assert expected.committed > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_service_exact_certify_is_check_history(protocol):
    service = TransactionService(
        ServiceConfig(protocol=protocol, seed=5, batch_max=4)
    )
    catalog = service.catalog()
    rng = random.Random(5)
    with service:
        for i in range(12):
            service.submit(f"t{i % 2}", generate_ops(rng, catalog))
    actual = service.certify(exact=True)
    expected = check_history(
        service.history_result(),
        strict_cross_object=strictness_for(protocol),
    )
    assert actual == expected
    assert expected.committed > 0


def _count_graph_builds(monkeypatch) -> list:
    """Count conventional-baseline runs wherever the judges reach them."""
    builds = []
    real = serializability.conventional_baseline

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(serializability, "conventional_baseline", counting)
    monkeypatch.setattr(oracle, "conventional_baseline", counting, raising=False)
    return builds


def test_one_judgement_builds_the_conventional_graph_once(monkeypatch):
    reference = _one_batch_group(4, "page-2pl", 1).units[0].result
    group = _one_batch_group(7, "page-2pl", 2)
    builds = _count_graph_builds(monkeypatch)
    check_history(reference)
    assert len(builds) == 1
    builds.clear()
    group.certify()
    assert len(builds) == group.n_shards
