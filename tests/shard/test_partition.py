"""Static partitioning: call components, the shard map, workload splits."""

from repro.fuzz.generator import GeneratorProfile, generate
from repro.shard import ShardGroup, ShardMap, call_components, split_ops

GROUPED = GeneratorProfile.smoke().grouped(2)


def _spec(seed=0, profile=GROUPED):
    return generate(seed, profile)


def _request(program) -> dict:
    return {
        "label": program.label,
        "ops": program.ops,
        "max_restarts": program.max_restarts,
    }


class TestCallComponents:
    def test_nested_call_targets_stay_with_their_root(self):
        spec = _spec()
        components = call_components(spec)
        by_object = {}
        for component in components:
            for name in component:
                by_object[name] = component
        # every object belongs to exactly one component
        assert sorted(by_object) == sorted(o.name for o in spec.objects)
        # a call in any method plan never crosses components
        for obj in spec.objects:
            for method in obj.methods:
                for op in method.plan:
                    if op[0] == "call":
                        assert by_object[op[1]] is by_object[obj.name], (
                            f"{obj.name} calls {op[1]} across components"
                        )

    def test_groups_are_separate_components(self):
        # grouped generation never calls across groups, so no component
        # mixes G0 and G1 names
        for component in call_components(_spec()):
            groups = {name.split("G")[1][0] for name in component}
            assert len(groups) == 1


class TestShardMap:
    def test_plan_covers_every_object_exactly_once(self):
        spec = _spec()
        shard_map = ShardMap.plan(spec, 2)
        assert sorted(shard_map.assignment) == sorted(
            o.name for o in spec.objects
        )
        owned = [shard_map.owned(s, spec) for s in range(2)]
        assert sorted(o.name for shard in owned for o in shard) == sorted(
            o.name for o in spec.objects
        )

    def test_one_shard_owns_everything(self):
        spec = _spec()
        shard_map = ShardMap.plan(spec, 1)
        assert all(shard == 0 for shard in shard_map.assignment.values())

    def test_round_trip(self):
        shard_map = ShardMap.plan(_spec(), 3)
        clone = ShardMap.from_dict(shard_map.to_dict())
        assert clone.assignment == shard_map.assignment
        assert clone.n_shards == shard_map.n_shards

    def test_call_components_never_split(self):
        spec = _spec()
        shard_map = ShardMap.plan(spec, 2)
        for component in call_components(spec):
            shards = {shard_map.shard_of(name) for name in component}
            assert len(shards) == 1


class TestSplits:
    def test_split_ops_routes_by_owner(self):
        spec = _spec()
        shard_map = ShardMap.plan(spec, 2)
        program = spec.programs[0]
        split = split_ops(program.ops, shard_map)
        for shard, ops in split.items():
            for op in ops:
                if op[0] == "send":
                    assert shard_map.shard_of(op[1]) == shard

    def test_split_preserves_every_send(self):
        spec = _spec()
        shard_map = ShardMap.plan(spec, 2)
        for program in spec.programs:
            split = split_ops(program.ops, shard_map)
            sends = [op for op in program.ops if op[0] == "send"]
            routed = [
                op for ops in split.values() for op in ops if op[0] == "send"
            ]
            assert sorted(map(tuple, routed)) == sorted(map(tuple, sends))

    def test_multi_labels_are_programs_spanning_shards(self):
        spec = _spec()
        shard_map = ShardMap.plan(spec, 2)
        expected = {}
        for program in spec.programs:
            shards = {
                shard_map.shard_of(op[1])
                for op in program.ops
                if op[0] == "send"
            }
            assert set(split_ops(program.ops, shard_map)) == shards
            if len(shards) > 1:
                expected[program.label] = tuple(sorted(shards))
        assert expected, "the grouped spec must span shards somewhere"
        # The group enrolls exactly the spanning programs with the
        # coordinator, with their sorted shard tuples.
        group = ShardGroup(spec, "page-2pl", 2, seed=spec.seed)
        group.run_batch([_request(program) for program in spec.programs])
        assert group.coordinator.multi == expected

    def test_single_shard_split_has_no_multi(self):
        spec = _spec()
        shard_map = ShardMap.plan(spec, 1)
        for program in spec.programs:
            assert split_ops(program.ops, shard_map) == {
                0: [list(op) for op in program.ops]
            }
        group = ShardGroup(spec, "page-2pl", 1, seed=spec.seed)
        outcomes = group.run_batch(
            [_request(program) for program in spec.programs]
        )
        assert group.coordinator.multi == {}
        assert sorted(outcomes) == sorted(p.label for p in spec.programs)
