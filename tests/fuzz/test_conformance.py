"""Cross-protocol conformance: the fuzzer's smoke campaign as a test suite.

Each protocol gets its own parametrized case running the smoke generator
profile over a block of seeds and demanding a clean oracle verdict on every
committed history (strict cross-object closure for the commit-duration
protocols, the literal Definition 13/16 reading for the early-release
protocols — see ``repro.fuzz.oracle``).  Further cases pin the generator's
determinism and Definition 5 coverage, prove the ablated oracle actually
detects a broken commutativity entry, and freeze the shrinker's
counterexample file format.
"""

import json

import pytest

from repro.fuzz import (
    FUZZ_PROTOCOLS,
    Ablation,
    GeneratorProfile,
    counterexample_dict,
    generate,
    run_campaign,
    run_cell,
    shrink,
    strictness_for,
)
from repro.fuzz.generator import WorkloadSpec
from repro.fuzz.shrink import COUNTEREXAMPLE_VERSION

SMOKE_SEEDS = list(range(50))


@pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
def test_protocol_conformance_smoke(protocol):
    campaign = run_campaign(
        seeds=SMOKE_SEEDS,
        protocols=(protocol,),
        profile=GeneratorProfile.smoke(),
    )
    assert campaign.ok, (
        f"{protocol}: {len(campaign.violations)} oracle violation(s), "
        f"{len(campaign.errors)} simulator error(s); first: "
        f"{(campaign.violations or campaign.errors)[0]}"
    )
    tally = campaign.tallies[protocol]
    assert tally.runs == len(SMOKE_SEEDS)
    assert tally.committed > 0


def test_admission_rate_delta():
    """The paper's concurrency claim, quantified: the oo criterion admits
    committed histories the conventional page-conflict criterion rejects,
    and the commutativity-driven protocols produce far more of them."""
    campaign = run_campaign(
        seeds=list(range(12)),
        protocols=("page-2pl", "open-nested-oo"),
        profile=GeneratorProfile.smoke(),
    )
    assert campaign.ok
    assert campaign.tallies["open-nested-oo"].oo_only > 0
    assert (
        campaign.tallies["open-nested-oo"].oo_only
        >= campaign.tallies["page-2pl"].oo_only
    )
    # strict page 2PL orders every page conflict: nothing is oo-only
    assert campaign.tallies["page-2pl"].oo_only == 0


@pytest.mark.parametrize("protocol", ["page-2pl", "closed-nested"])
@pytest.mark.parametrize("seed", [11, 25])
def test_page_level_2pl_is_conventionally_serializable(seed, protocol):
    """Default-profile cells whose Definition 5 virtual duplicates once
    counted as page accesses and made the baseline reject a strict
    page-2PL history."""
    _, report = run_cell(generate(seed, GeneratorProfile()), protocol)
    assert not report.violation
    assert report.conventional_serializable


def test_generator_is_deterministic():
    profile = GeneratorProfile.smoke()
    assert generate(7, profile).to_dict() == generate(7, profile).to_dict()
    assert generate(7, profile).to_dict() != generate(8, profile).to_dict()


def test_generator_covers_definition5():
    """Across the smoke seeds, generated plans must include self calls and
    up calls — the call structures that force the Definition 5 extension
    (an action with a call ancestor on its own object)."""
    self_calls = up_calls = 0
    for seed in range(10):
        spec = generate(seed, GeneratorProfile.smoke())
        layer = {o.name: o.layer for o in spec.objects}
        for ospec in spec.objects:
            for plan in ospec.methods:
                for op in plan.plan:
                    if op[0] != "call":
                        continue
                    if op[1] == ospec.name:
                        self_calls += 1
                    elif layer.get(op[1], -1) >= ospec.layer:
                        up_calls += 1
    assert self_calls > 0
    assert up_calls > 0


def test_workload_spec_round_trips():
    spec = generate(3, GeneratorProfile.smoke())
    clone = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone.to_dict() == spec.to_dict()


def test_oracle_strictness_split():
    assert strictness_for("page-2pl")
    assert strictness_for("closed-nested")
    assert strictness_for("optimistic-oo")
    assert not strictness_for("multilevel")
    assert not strictness_for("open-nested-oo")


def _first_ablated_violation(max_seed=30):
    campaign = run_campaign(
        seeds=list(range(max_seed)),
        profile=GeneratorProfile.smoke(),
        ablate_first_leaf=True,
        max_violations=1,
    )
    assert campaign.violations, (
        "the ablated oracle (every first-leaf entry forced to conflict) "
        f"found no violation in {max_seed} seeds — the fuzzer cannot detect "
        "broken commutativity specifications"
    )
    return campaign.violations[0]


def test_ablation_and_counterexample_format():
    violation = _first_ablated_violation()
    small, stats = shrink(
        violation.spec,
        violation.protocol,
        exec_seed=violation.seed,
        ablation=violation.ablation,
    )
    # shrinking must keep the failure alive and never grow the workload
    assert stats.programs_after <= stats.programs_before
    assert stats.sends_after <= stats.sends_before
    assert stats.evals > 0

    payload = counterexample_dict(
        small,
        violation.protocol,
        exec_seed=violation.seed,
        ablation=violation.ablation,
        report=violation.report,
        stats=stats,
    )
    # the pinned on-disk format: exactly these keys, exactly this version
    assert payload["version"] == COUNTEREXAMPLE_VERSION
    assert set(payload) == {
        "version",
        "generator_seed",
        "exec_seed",
        "protocol",
        "ablation",
        "violation",
        "shrink",
        "workload",
    }
    assert set(payload["violation"]) == {
        "oo_serializable",
        "conventional_serializable",
        "committed",
        "description",
    }
    assert set(payload["shrink"]) == {"evals", "programs", "sends", "objects"}
    assert payload["generator_seed"] == violation.seed

    # the file is self-contained: a JSON round trip still reproduces
    blob = json.loads(json.dumps(payload))
    respec = WorkloadSpec.from_dict(blob["workload"])
    _, report = run_cell(
        respec,
        blob["protocol"],
        exec_seed=blob["exec_seed"],
        ablation=Ablation.from_dict(blob["ablation"]),
    )
    assert report.violation
