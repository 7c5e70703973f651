"""The conventional baseline reads the executed history, not an analysis.

Definition 5 hangs virtual duplicates off the shared committed trees and
moves offenders to virtual objects; which of them exist depends on which
analyses ran first.  :func:`repro.core.serializability.conventional_baseline`
must give the same constraints, pair count and verdict on a fresh
committed projection and on one whose trees an
:class:`~repro.core.certify.OnlineCertifier` has already extended.
"""

import pytest

from repro.core.certify import OnlineCertifier, certified_base
from repro.core.serializability import conventional_baseline
from repro.fuzz import FUZZ_PROTOCOLS, GeneratorProfile, generate
from repro.fuzz.driver import execute_cell
from repro.fuzz.oracle import strictness_for
from repro.oodb.trace import committed_history

SEEDS = range(10)


@pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
def test_baseline_is_the_same_before_and_after_online_extension(protocol):
    virtual = 0
    for seed in SEEDS:
        result = execute_cell(generate(seed, GeneratorProfile.smoke()), protocol)
        fresh, registry = committed_history(result.db, result.committed_labels)
        before = conventional_baseline(fresh)
        certifier = OnlineCertifier(
            certified_base(result.db.system),
            registry.copy(),
            strict_cross_object=strictness_for(protocol),
        )
        for txn in fresh.tops:
            certifier.observe_commit(txn)
        extended, _ = committed_history(result.db, result.committed_labels)
        virtual += sum(action.virtual for action in extended.all_actions())
        assert conventional_baseline(extended) == before, (seed, protocol)
        assert conventional_baseline(certifier.system) == before, (seed, protocol)
    # the cells have call cycles: the certifier did extend the trees
    assert virtual > 0
