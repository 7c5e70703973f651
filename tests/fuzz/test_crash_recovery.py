"""The crash-recovery fuzzer: cells, campaign slice, oracle self-test.

Kept on the smoke profile so the suite stays fast; the full campaign runs
from the CLI (``python -m repro fuzz --crash``) and in CI.
"""

import copy

import pytest

from repro.faults import FaultPlan
from repro.fuzz.crash import (
    ARMED_SITES,
    crash_census,
    run_armed_cell,
    run_crash_campaign,
    run_crash_cell,
)
from repro.fuzz.generator import GeneratorProfile, generate
from repro.oodb.log import CompensationRecord

SMOKE = GeneratorProfile.smoke()


class TestCompensationRecordSnapshot:
    def test_args_are_deep_copied_at_registration(self):
        """A caller mutating its argument objects after the subtransaction
        commits must not corrupt a compensation replayed later."""
        payload = {"amount": 5, "tags": ["a"]}
        record = CompensationRecord("Acct1", "undo_deposit", (payload,))
        payload["amount"] = 999
        payload["tags"].append("b")
        assert record.args[0] == {"amount": 5, "tags": ["a"]}

    def test_copy_survives_record_copies(self):
        record = CompensationRecord("O", "m", ([1, 2],))
        clone = copy.deepcopy(record)
        assert clone.args == record.args


class TestCrashCells:
    def test_census_counts_sites(self):
        spec = generate(0, SMOKE)
        census = crash_census(spec, "open-nested-oo")
        assert census.get("page-write.before", 0) > 0
        assert census.get("commit.before", 0) > 0

    def test_census_counts_wakeups(self):
        """The census executor consults the counting plan too, so lock
        waits show up as ``wakeup`` hits the armed pass can drop."""
        census = crash_census(generate(0, SMOKE), "page-2pl")
        assert census.get("wakeup", 0) > 0

    def test_census_arms_dropped_wakeups(self):
        armed = [
            plan
            for seed in range(12)
            for protocol in ("page-2pl", "open-nested-oo")
            for census in [crash_census(generate(seed, SMOKE), protocol)]
            for site in ARMED_SITES
            for plan in [
                FaultPlan.from_census(
                    seed, census, site=site, sites=ARMED_SITES
                )
            ]
            if plan is not None
        ]
        assert any(plan.drop_wakeups_at for plan in armed)

    @pytest.mark.parametrize("protocol", ["open-nested-oo", "page-2pl"])
    def test_armed_cell_recovers_cleanly(self, protocol):
        spec = generate(0, SMOKE)
        outcome = run_crash_cell(spec, protocol, site="page-write.after")
        if outcome.skipped:
            pytest.skip(outcome.skipped)
        assert outcome.crashed
        assert outcome.ok, outcome.violations

    def test_cell_is_reproducible_from_its_plan(self):
        spec = generate(1, SMOKE)
        first = run_crash_cell(spec, "open-nested-oo", site="commit.before")
        if first.skipped or not first.crashed:
            pytest.skip("seed 1 does not reach commit.before")
        replay = run_armed_cell(
            spec, "open-nested-oo", FaultPlan.from_dict(first.plan)
        )
        assert replay.crashed
        assert replay.winners == first.winners
        assert replay.losers == first.losers
        assert replay.violations == first.violations

    def test_ablation_is_detected(self):
        """Recovery that forgets compensation replay must be caught by the
        state-vs-serial-replay oracle check somewhere in a small sweep."""
        campaign = run_crash_campaign(
            seeds=list(range(4)),
            protocols=("multilevel", "open-nested-oo"),
            profile=SMOKE,
            skip_compensation=True,
            check_recovery_crash=False,
            max_violations=1,
        )
        assert campaign.violations, "crash oracle is blind to broken recovery"
        counterexample = campaign.violations[0].counterexample
        assert counterexample["kind"] == "crash"
        assert "plan" in counterexample and "spec" in counterexample

    def test_smoke_campaign_slice_is_clean(self):
        campaign = run_crash_campaign(
            seeds=[0],
            protocols=("open-nested-oo",),
            profile=SMOKE,
            sites=ARMED_SITES[:4],
            max_violations=1,
        )
        assert campaign.ok, (
            [v.outcome.violations for v in campaign.violations],
            campaign.errors,
        )
