"""Differential suite: the fast certifier vs the exact oracle, byte for byte.

Over fuzz-generated histories under every protocol, the certifier's
verdict must equal :func:`check_history`'s ``oo_serializable`` bit, and on
violation the attached witness report must be byte-identical — so a
campaign judged with ``--certify`` reproduces, shrinks, and replays
exactly like one judged by the oracle alone.
"""

import pytest

from repro.catalog import GeneratorProfile, generate
from repro.core.certify import certify_history
from repro.core.judge import Ablation, check_history, strictness_for
from repro.errors import ReproError
from repro.fuzz.driver import FUZZ_PROTOCOLS, execute_cell

#: ≥50 seeds per protocol (ISSUE 8 acceptance criterion)
SEEDS = range(50)


def _both(result, *, strict, ablation=None):
    cert = certify_history(result, ablation, strict_cross_object=strict)
    exact = check_history(result, ablation, strict_cross_object=strict)
    return cert, exact


def _assert_agreement(cert, exact, context):
    assert cert.oo_serializable == exact.oo_serializable, context
    assert cert.violation == exact.violation, context
    if cert.violation:
        assert cert.description == exact.description, context
        oracle = cert.as_oracle_report()
        assert oracle.description == exact.description, context
        assert oracle.oo_serializable == exact.oo_serializable, context
        assert (
            oracle.conventional_serializable == exact.conventional_serializable
        ), context


@pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
def test_certifier_matches_oracle(protocol):
    strict = strictness_for(protocol)
    checked = 0
    for seed in SEEDS:
        spec = generate(seed)
        try:
            result = execute_cell(spec, protocol)
        except ReproError:
            continue
        cert, exact = _both(result, strict=strict)
        _assert_agreement(cert, exact, (protocol, seed))
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
def test_certifier_matches_oracle_under_ablation(protocol):
    """The violating leg: ablations force cycles, exercising escalation,
    the attached canonical report, and the witness byte-pin."""
    strict = strictness_for(protocol)
    for seed in range(20):
        spec = generate(seed)
        ablation = Ablation(object_name=spec.leaf_objects[0].name)
        try:
            result = execute_cell(spec, protocol)
        except ReproError:
            continue
        cert, exact = _both(result, strict=strict, ablation=ablation)
        _assert_agreement(cert, exact, (protocol, seed, "ablated"))
    # Not every protocol/seed yields a violation; the pinned test below
    # guarantees the violating path runs even in isolation.


def test_pinned_ablated_violation_witness_bytes():
    spec = generate(4, GeneratorProfile.smoke())
    ablation = Ablation(object_name=spec.leaf_objects[0].name)
    result = execute_cell(spec, "open-nested-oo")
    strict = strictness_for("open-nested-oo")
    cert, exact = _both(result, strict=strict, ablation=ablation)
    assert cert.violation and exact.violation
    assert cert.escalated
    _assert_agreement(cert, exact, "pinned seed 4")


@pytest.mark.parametrize("protocol", ["page-2pl", "optimistic-oo"])
def test_certifier_matches_oracle_on_long_histories(protocol):
    """The C14 regime: conflict-sparse long cells, where the fast path
    must carry most commits and still agree with the oracle."""
    strict = strictness_for(protocol)
    result = execute_cell(generate(0, GeneratorProfile.long(40)), protocol)
    cert, exact = _both(result, strict=strict)
    _assert_agreement(cert, exact, (protocol, "long"))
    assert cert.fast_commits + cert.escalated_commits == cert.committed
    if not cert.escalated:
        assert cert.fast_commits == cert.committed
