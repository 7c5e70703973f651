"""Byte-pin of :class:`ShardGroup` behaviour across batches.

``run_batch`` is driven directly (no engine thread, no admission) over
seeded request batches that include cross-shard transactions; the canonical
transcript — per-batch outcomes, the group clock, the coordinator counters,
and the composed verdict at the end — must match
``tests/data/shard_group_transcript.txt`` byte for byte.  The file was
generated before the shard layer was collapsed to one unit / one barrier
loop, so it is the comparison between the two shapes.
"""

import pathlib
import random

from repro.fuzz.generator import GeneratorProfile, generate
from repro.service.client import generate_ops
from repro.shard.service import ShardGroup

EXPECTED = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "shard_group_transcript.txt"
)
PROTOCOLS = ("page-2pl", "open-nested-oo")
SEED = 7
BATCHES = 6
BATCH_SIZE = 6


def _catalog(spec) -> dict:
    return {
        ospec.name: {"methods": [plan.name for plan in ospec.methods]}
        for ospec in spec.objects
    }


def _shards_of(group: ShardGroup, ops: list) -> set[int]:
    return {group.shard_map.shard_of(op[1]) for op in ops if op[0] == "send"}


def _request(tenant: int, number: int, ops: list) -> dict:
    return {
        "label": f"t{tenant}/txn#{number}",
        "ops": ops,
        "max_restarts": 20,
        "deadline_ticks": 4000,
    }


def _transcript(protocol: str) -> list[str]:
    spec = generate(SEED, GeneratorProfile().grouped(2))
    group = ShardGroup(spec, protocol, 2, seed=SEED)
    catalog = _catalog(spec)
    rng = random.Random(repr((SEED, protocol, "transcript")))
    lines = [f"protocol {protocol}"]
    cross = 0
    for batch in range(BATCHES):
        requests = []
        for i in range(BATCH_SIZE):
            ops = generate_ops(rng, catalog)
            cross += len(_shards_of(group, ops)) > 1
            requests.append(_request(i % 2, batch * BATCH_SIZE + i, ops))
        outcomes = group.run_batch(requests)
        lines.append(f"batch {batch} now={group.now}")
        for label in sorted(outcomes):
            outcome = outcomes[label]
            lines.append(
                f"  {label} committed={outcome.committed} "
                f"attempts={outcome.attempts} "
                f"cross_abort={outcome.cross_abort}"
            )
        stats = group.coordinator.stats()
        lines.append(
            "  coordinator "
            + " ".join(f"{key}={stats[key]}" for key in sorted(stats))
        )
    assert cross > 0, "the batches must include cross-shard requests"
    report = group.certify()
    lines.append(
        f"certify oo={report.oo_serializable} "
        f"conv={report.conventional_serializable} "
        f"oo-constraints={report.oo_constraints} "
        f"conv-constraints={report.conventional_constraints} "
        f"committed={report.committed}"
    )
    return lines


def test_group_transcript_is_byte_identical():
    lines = []
    for protocol in PROTOCOLS:
        lines.extend(_transcript(protocol))
    assert "\n".join(lines) + "\n" == EXPECTED.read_text()


def test_batches_without_cross_shard_requests_skip_the_def15_report(
    monkeypatch,
):
    """No cross-shard transaction, no barrier: ``run_batch`` must not pay
    for a from-scratch Definition 15 extraction nobody reads."""
    from repro.shard import service as shard_service

    analyses = []
    real = shard_service.analyze_system
    monkeypatch.setattr(
        shard_service,
        "analyze_system",
        lambda *args, **kw: analyses.append(args) or real(*args, **kw),
    )
    judged = []
    real_judge = shard_service.ShardState.judge
    monkeypatch.setattr(
        shard_service.ShardState,
        "judge",
        lambda unit, *args: judged.append(unit) or real_judge(unit, *args),
    )
    for n_shards in (1, 2):
        spec = generate(SEED, GeneratorProfile().grouped(n_shards))
        group = ShardGroup(spec, "open-nested-oo", n_shards, seed=SEED)
        catalog = _catalog(spec)
        rng = random.Random(repr((SEED, n_shards, "single-shard")))
        committed = 0
        for batch in range(3):
            requests = []
            while len(requests) < BATCH_SIZE:
                ops = generate_ops(rng, catalog)
                if len(_shards_of(group, ops)) == 1:
                    requests.append(
                        _request(0, batch * BATCH_SIZE + len(requests), ops)
                    )
            outcomes = group.run_batch(requests)
            committed += sum(o.committed for o in outcomes.values())
        assert committed > 0
        assert analyses == []
        assert group.coordinator.stats()["rounds"] == 0
    assert not group.certify().violation
    assert judged, "the audit surface still runs the analysis"
