"""The online audit at every shard count agrees with the exact judge.

Each shard unit certifies and seals its own commits after every batch,
and after a coordinating batch the union of the units' Definition 15
edges must stay acyclic.  Over faulted service cells at 2 and 3 shards
that verdict must be the composed exact oracle's — also with the units'
audit registry ablated (every object's entries broken, while the
schedulers and the coordinator keep the real ones), where the exact
oracle finds violations the online audit must find too.
"""

import functools

import pytest

from repro.core.judge import Ablation
from repro.fuzz import service_campaign as campaign
from repro.fuzz.driver import FUZZ_PROTOCOLS
from repro.service.service import TransactionService

SEEDS = (0, 1, 2)
SHARDS = (2, 3)


class _EveryObject:
    """:meth:`Ablation.apply` for every object of the hosted spec."""

    def __init__(self, spec):
        self.ablations = [Ablation(object_name=o.name) for o in spec.objects]

    def apply(self, registry):
        for ablation in self.ablations:
            registry = ablation.apply(registry)
        return registry


@functools.cache
def _cell(shards: int, seed: int, protocol: str, ablated: bool):
    """One faulted service cell; returns (online report, exact report)."""
    services: list[TransactionService] = []
    ablation = None

    class Audited(TransactionService):
        def __init__(self, *args, **kwargs):
            nonlocal ablation
            super().__init__(*args, **kwargs)
            if ablated:
                ablation = _EveryObject(self.spec)
                for unit in self._group.units:
                    unit.certifier.commutativity = ablation.apply(
                        unit.certifier.commutativity
                    )
            services.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "TransactionService", Audited)
        cell = campaign.run_service_cell(
            seed,
            protocol,
            clients_per_tenant=2,
            requests_per_client=4,
            shards=shards,
        )
    assert cell.error is None, cell.error
    (svc,) = services
    return svc.certification(), svc.certify(ablation, exact=True)


MATRIX = [
    (shards, seed, protocol)
    for shards in SHARDS
    for seed in SEEDS
    for protocol in FUZZ_PROTOCOLS
]


@pytest.mark.parametrize("shards,seed,protocol", MATRIX)
def test_the_sharded_online_audit_agrees_with_the_exact_judge(
    shards, seed, protocol
):
    online, exact = _cell(shards, seed, protocol, False)
    assert online.committed == exact.committed > 0
    assert online.epochs > 0
    assert online.ok == exact.oo_serializable
    assert online.ok


@pytest.mark.parametrize("shards,seed,protocol", MATRIX)
def test_the_ablated_online_audit_flags_what_the_exact_judge_flags(
    shards, seed, protocol
):
    online, exact = _cell(shards, seed, protocol, True)
    assert online.ok == exact.oo_serializable


def test_the_ablated_cells_hold_real_violations():
    # Without them, the ablated agreement would be "ok == ok" throughout.
    assert any(not _cell(*cell, True)[1].oo_serializable for cell in MATRIX)
