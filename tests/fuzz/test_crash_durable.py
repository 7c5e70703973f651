"""Durable crash cells: storage crash sites, parity oracle, pinned ablation.

The pinned counterexample (``tests/data/crash_durable_ablation_cex.json``)
is the replayable proof that the skipped-log-force ablation is observable:
a buffer pool that flushes dirty pages without forcing the WAL first
plants phantom effects that survive recovery, and the 4-part crash oracle
catches them.  It was found by the probe-guided hunt
(:func:`repro.fuzz.crash.find_log_force_ablation`); the same cell with the
WAL rule intact recovers cleanly.
"""

import json
import os

import pytest

from repro.faults import DURABLE_CRASH_SITES, FaultPlan
from repro.fuzz.crash import (
    DurableConfig,
    crash_census,
    replay_crash,
    run_armed_cell,
    run_crash_campaign,
    run_crash_cell,
)
from repro.fuzz.generator import GeneratorProfile, WorkloadSpec, generate

SMOKE = GeneratorProfile.smoke()
DURABLE = DurableConfig(frames=6, checkpoint_every=24)
CEX_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "crash_durable_ablation_cex.json"
)


def load_cex():
    with open(CEX_PATH) as fh:
        return json.load(fh)


class TestDurableCells:
    def test_census_reaches_the_storage_sites(self):
        spec = generate(0, SMOKE)
        census = crash_census(spec, "open-nested-oo", durable=DURABLE)
        for site in DURABLE_CRASH_SITES:
            assert census.get(site, 0) > 0, site

    @pytest.mark.parametrize("site", DURABLE_CRASH_SITES)
    def test_storage_site_crashes_recover_cleanly(self, site):
        spec = generate(0, SMOKE)
        outcome = run_crash_cell(
            spec,
            "open-nested-oo",
            site=site,
            durable=DURABLE,
            check_recovery_crash=False,
        )
        if outcome.skipped:
            pytest.skip(outcome.skipped)
        assert outcome.crashed
        assert outcome.ok, outcome.violations

    def test_durable_cell_survives_a_mid_recovery_crash(self):
        spec = generate(0, SMOKE)
        outcome = run_crash_cell(
            spec,
            "open-nested-oo",
            site="page-write.after",
            durable=DURABLE,
            check_recovery_crash=True,
        )
        if outcome.skipped:
            pytest.skip(outcome.skipped)
        assert outcome.ok, outcome.violations

    def test_counterexample_round_trips_through_json(self):
        spec = generate(0, SMOKE)
        outcome = run_crash_cell(
            spec,
            "open-nested-oo",
            site="eviction.mid",
            durable=DURABLE,
            check_recovery_crash=False,
        )
        if outcome.skipped:
            pytest.skip(outcome.skipped)
        data = outcome.to_counterexample(spec)
        assert data["durable"] == DURABLE.to_dict()
        replayed = replay_crash(data)
        assert replayed.violations == outcome.violations
        assert replayed.winners == outcome.winners


class TestLogForceAblation:
    def test_pinned_counterexample_is_caught(self):
        data = load_cex()
        assert data["durable"]["skip_log_force"] is True
        outcome = replay_crash(data)
        assert outcome.crashed
        assert outcome.violations, "the pinned ablation cell went undetected"

    def test_same_cell_with_the_wal_rule_intact_is_clean(self):
        data = load_cex()
        spec = WorkloadSpec.from_dict(data["spec"])
        plan = FaultPlan.from_dict(data["plan"])
        honest = DurableConfig(
            frames=data["durable"]["frames"],
            checkpoint_every=data["durable"]["checkpoint_every"],
            skip_log_force=False,
        )
        outcome = run_armed_cell(
            spec,
            data["protocol"],
            plan,
            durable=honest,
            check_recovery_crash=False,
        )
        assert outcome.crashed
        assert outcome.ok, outcome.violations


class TestDescriptors:
    def test_a_durable_campaign_closes_every_image_log_it_opened(self):
        # every leg of every cell opens a store, and each store holds one
        # descriptor on its image log until the cell's backend closes it
        before = len(os.listdir("/proc/self/fd"))
        report = run_crash_campaign(
            seeds=[0, 1],
            protocols=("open-nested-oo",),
            profile=SMOKE,
            durable=DURABLE,
        )
        assert report.ok and report.crash_runs > 0
        assert len(os.listdir("/proc/self/fd")) == before
