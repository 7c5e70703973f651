"""The sharded runtime end to end: byte identity at one shard, merged-trace
determinism, composed-oracle verdicts."""

import pytest

from repro.fuzz import FUZZ_PROTOCOLS
from repro.fuzz.generator import GeneratorProfile, generate
from repro.fuzz.oracle import Ablation
from repro.shard import run_sharded_cell, single_core_text

SMOKE = GeneratorProfile.smoke()
GROUPED = SMOKE.grouped(2)


class TestOneShardByteIdentity:
    @pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
    def test_one_shard_matches_single_core(self, protocol):
        spec = generate(11, SMOKE)
        sharded = run_sharded_cell(spec, protocol, 1, collect_events=True)
        assert sharded.canonical_text() == single_core_text(spec, protocol)

    def test_one_shard_never_coordinates(self):
        spec = generate(11, SMOKE)
        result = run_sharded_cell(spec, "page-2pl", 1)
        assert result.coordinator["rounds"] == 0
        assert result.decisions == {}


class TestDeterminism:
    def test_merged_trace_is_stable_across_three_runs(self):
        spec = generate(7, GROUPED)
        texts = {
            run_sharded_cell(
                spec, "page-2pl", 2, collect_events=True
            ).canonical_text()
            for _ in range(3)
        }
        assert len(texts) == 1

    def test_merged_events_are_tick_ordered(self):
        spec = generate(7, GROUPED)
        result = run_sharded_cell(spec, "page-2pl", 2, collect_events=True)
        ticks = [event.get("tick", 0) for event in result.events]
        assert ticks == sorted(ticks)


class TestComposedOracle:
    @pytest.mark.parametrize("protocol", ["page-2pl", "optimistic-oo"])
    def test_cross_shard_smoke_cells_are_clean(self, protocol):
        coordinated = 0
        for seed in range(3):
            spec = generate(seed, GROUPED)
            result = run_sharded_cell(spec, protocol, 2)
            assert result.ok, (
                f"seed {seed} {protocol}: {result.report.description}"
            )
            assert not result.atomicity_violations
            coordinated += len(result.decisions)
        # the sweep must actually exercise the 2PC path somewhere
        assert coordinated > 0

    def test_atomicity_every_decision_is_respected(self):
        from repro.shard import ABORT, COMMIT

        spec = generate(7, GROUPED)
        result = run_sharded_cell(spec, "page-2pl", 2)
        committed = set(result.committed)
        for base, verdict in result.decisions.items():
            if verdict == COMMIT:
                assert base in committed
            else:
                assert verdict == ABORT
                assert base not in committed

    def test_ablated_entry_is_caught_by_the_composed_oracle(self):
        """Self-test of the composed Def 15/16 oracle: the cell the ablated
        sharded campaign (``fuzz --seeds 40 --smoke --ablate --shards 2``)
        fails on violates under the first-leaf ablation, and only under
        it."""
        spec = generate(32, GROUPED)
        ablation = Ablation(object_name=spec.leaf_objects[0].name)
        ablated = run_sharded_cell(spec, "multilevel", 2, ablation=ablation)
        assert ablated.report.violation
        assert run_sharded_cell(spec, "multilevel", 2).ok
