"""Direct unit tests for the fault plans: occurrence counting, arming,
round-trips — the plan layer alone, no executor or database attached."""

import pytest

from repro.errors import SimulatedCrash
from repro.faults import (
    CRASH_SITES,
    RECOVERY_SITES,
    SERVICE_FAULT_SITES,
    FaultPlan,
    ServiceFaultPlan,
)


class TestCrashSites:
    def test_counting_plan_never_crashes_and_tallies_every_site(self):
        plan = FaultPlan.counting()
        for site in CRASH_SITES:
            for _ in range(3):
                plan.hit(site)
        assert plan.counts == {site: 3 for site in CRASH_SITES}
        assert not plan.crashed

    def test_crash_fires_at_exactly_the_armed_occurrence(self):
        plan = FaultPlan.crash_plan("page-write.after", 2)
        plan.hit("page-write.after")  # occurrence 0
        plan.hit("page-write.after")  # occurrence 1
        with pytest.raises(SimulatedCrash) as excinfo:
            plan.hit("page-write.after")  # occurrence 2 - armed
        assert excinfo.value.site == "page-write.after"
        assert plan.crashed

    def test_other_sites_do_not_trip_the_armed_one(self):
        plan = FaultPlan.crash_plan("commit.before", 0)
        plan.hit("page-write.before")
        plan.hit("subcommit.after")
        assert not plan.crashed
        with pytest.raises(SimulatedCrash):
            plan.hit("commit.before")

    def test_every_hit_after_the_crash_keeps_raising(self):
        # Once the system is dead, nothing downstream may proceed.
        plan = FaultPlan.crash_plan("commit.after", 0)
        with pytest.raises(SimulatedCrash):
            plan.hit("commit.after")
        with pytest.raises(SimulatedCrash):
            plan.hit("page-write.before")
        with pytest.raises(SimulatedCrash):
            plan.hit("rollback.step")


class TestTransientAndWakeups:
    def test_transient_dispatch_fires_on_armed_occurrences_only(self):
        plan = FaultPlan(transient_at=frozenset({1, 3}))
        fired = [plan.transient() for _ in range(5)]
        assert fired == [False, True, False, True, False]
        assert plan.counts["transient.dispatch"] == 5

    def test_transient_sites_are_counted_independently(self):
        plan = FaultPlan(transient_at=frozenset({0}))
        assert plan.transient("alpha") is True
        # Different site name, own counter: its occurrence 0 also fires.
        assert plan.transient("beta") is True
        assert plan.transient("alpha") is False
        assert plan.counts == {"transient.alpha": 2, "transient.beta": 1}

    def test_dropped_wakeups_fire_on_armed_occurrences_only(self):
        plan = FaultPlan(drop_wakeups_at=frozenset({0, 2}))
        dropped = [plan.drop_wakeup() for _ in range(4)]
        assert dropped == [True, False, True, False]
        assert plan.counts["wakeup"] == 4


class TestConstruction:
    CENSUS = {
        "page-write.before": 10,
        "page-write.after": 10,
        "commit.before": 4,
        "transient.dispatch": 12,
        "wakeup": 6,
    }

    def test_from_census_is_deterministic_in_the_seed(self):
        a = FaultPlan.from_census(7, self.CENSUS)
        b = FaultPlan.from_census(7, self.CENSUS)
        assert a.to_dict() == b.to_dict()
        assert a.crash_site in self.CENSUS
        assert 0 <= a.crash_at < self.CENSUS[a.crash_site]

    def test_from_census_respects_an_explicit_site(self):
        plan = FaultPlan.from_census(3, self.CENSUS, site="commit.before")
        assert plan.crash_site == "commit.before"
        assert 0 <= plan.crash_at < 4

    def test_from_census_returns_none_when_site_never_hit(self):
        assert FaultPlan.from_census(0, {}, site="commit.before") is None
        # Recovery-only sites are never primary crash candidates.
        census = {site: 5 for site in RECOVERY_SITES}
        assert FaultPlan.from_census(0, census) is None

    def test_round_trip_and_rearm_reset_counters(self):
        plan = FaultPlan.crash_plan("page-write.after", 1)
        plan.hit("page-write.after")
        assert plan.counts
        replay = plan.rearm()
        assert replay.counts == {}
        assert replay.to_dict() == plan.to_dict()
        assert FaultPlan.from_dict(plan.to_dict()).crash_at == 1

    def test_describe_mentions_the_armed_faults(self):
        assert "counting" in FaultPlan.counting().describe()
        plan = FaultPlan(
            crash_site="commit.before",
            crash_at=2,
            transient_at=frozenset({4}),
            drop_wakeups_at=frozenset({1}),
        )
        text = plan.describe()
        assert "commit.before#2" in text
        assert "transient@[4]" in text
        assert "drop-wakeup@[1]" in text


class TestServiceFaultPlan:
    def test_sites_cover_the_service_fault_alphabet(self):
        assert SERVICE_FAULT_SITES == (
            "client.slow",
            "client.stall",
            "client.disconnect",
            "arrival.burst",
        )

    def test_consultations_fire_on_armed_occurrences_only(self):
        plan = ServiceFaultPlan(
            slow_at=frozenset({1}),
            stall_at=frozenset({0}),
            disconnect_at=frozenset({2}),
            burst_at=frozenset(),
        )
        assert [plan.slow_client() for _ in range(3)] == [False, True, False]
        assert [plan.stall_session() for _ in range(2)] == [True, False]
        assert [plan.drop_connection() for _ in range(3)] == [
            False, False, True,
        ]
        assert plan.burst() is False
        assert plan.counts == {
            "client.slow": 3,
            "client.stall": 2,
            "client.disconnect": 3,
            "arrival.burst": 1,
        }

    def test_from_seed_is_deterministic_and_bounded(self):
        a = ServiceFaultPlan.from_seed(11, 20)
        b = ServiceFaultPlan.from_seed(11, 20)
        assert a.to_dict() == b.to_dict()
        for armed in (a.slow_at, a.stall_at, a.disconnect_at, a.burst_at):
            assert all(0 <= n < 20 for n in armed)

    def test_distinct_seeds_give_distinct_plans(self):
        plans = {
            repr(sorted(ServiceFaultPlan.from_seed(seed, 50).to_dict().items()))
            for seed in range(8)
        }
        assert len(plans) > 1

    def test_client_plan_is_reproducible_across_processes(self):
        """The per-client seed folds a *string* tenant in; it must enter the
        RNG through ``repr``, never the per-process salted ``hash()``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        plan = ServiceFaultPlan.for_client(3, "alpha", 0, n_requests=6)
        assert plan.to_dict() == {
            "slow_at": [],
            "stall_at": [],
            "disconnect_at": [],
            "burst_at": [1],
            "slow_delay_s": 0.05,
            "burst_size": 4,
        }
        printed = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.faults import ServiceFaultPlan; print("
                "ServiceFaultPlan.for_client(3, 'alpha', 0, n_requests=6)"
                ".to_dict())",
            ],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).parents[2] / "src"),
                "PYTHONHASHSEED": "12345",
            },
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert printed.strip() == repr(plan.to_dict())

    def test_none_is_unarmed_and_round_trip_rearms(self):
        assert not ServiceFaultPlan.none().armed
        plan = ServiceFaultPlan.from_seed(5, 30)
        plan.slow_client()
        replay = plan.rearm()
        assert replay.counts == {}
        assert replay.to_dict() == plan.to_dict()

    def test_describe_lists_armed_sites(self):
        assert ServiceFaultPlan.none().describe() == "no service faults"
        plan = ServiceFaultPlan(
            stall_at=frozenset({3}), burst_at=frozenset({0})
        )
        text = plan.describe()
        assert "stall@[3]" in text and "burst@[0]" in text
