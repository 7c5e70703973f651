"""Experiment C16 — transaction throughput scaling in shard count.

Three measurements, one machine-readable artifact:

1. **Shard sweep** — the same grouped workload specs run on the sharded
   runtime at 1, 2 and 4 shards, with committed transactions per
   wall-clock second as the throughput metric.  The cross-shard
   2PC/acyclicity path is genuinely exercised: every multi-shard point
   must coordinate (and commit) at least one distributed transaction.
   The shards' epochs run one after another in this process, so the
   recorded speedup measures what sharding costs (split, barrier, 2PC),
   not multi-core scaling; it is not gated.
2. **Cross-shard fuzz cells** — a smoke campaign at 2 shards across all
   protocols, asserted free of oracle violations and simulator errors
   (the composed per-shard Def 10–14 + global Def 15/16 verdict).
3. **Byte identity** — a ``--shards 1`` run's canonical cell report must
   equal the single-core executor's report byte for byte, per protocol.

Results go to ``benchmarks/results/scale_trajectory.txt`` *and* to
``BENCH_perf.json`` at the repo root under the ``c16-scale`` label
(override with ``$BENCH_SCALE_LABEL``), so successive PRs can track the
scaling trajectory next to C10's hot-path numbers.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import emit, write_trajectory

from repro.analysis import render_table
from repro.catalog import GeneratorProfile, generate
from repro.fuzz.driver import run_campaign
from repro.fuzz.parallel import available_cpus
from repro.fuzz.sharded import run_sharded_cell, single_core_text

#: enough sequential work per shard, and a cross-group rate low enough
#: that lock-holding voters rarely deadlock across shards (those aborts
#: would measure the victim picker, not the runtime).
SCALE_PROFILE = GeneratorProfile(
    n_objects=6, n_programs=24, ops_per_program=5, key_space=12,
).grouped(4, 0.06)
SCALE_SEEDS = (3, 5)
SCALE_SHARDS = (1, 2, 4)
SCALE_PROTOCOL = "page-2pl"

FUZZ_SEEDS = list(range(3))
FUZZ_SHARDS = 2

IDENTITY_SEED = 11
IDENTITY_PROTOCOLS = ("page-2pl", "optimistic-oo")


# ---------------------------------------------------------------------------
# 1. the shard sweep
# ---------------------------------------------------------------------------


def _sweep_section() -> dict:
    specs = [generate(seed, SCALE_PROFILE) for seed in SCALE_SEEDS]
    points = []
    for n_shards in SCALE_SHARDS:
        committed = 0
        multi_commits = 0
        rounds = 0
        start = time.perf_counter()
        for spec in specs:
            result = run_sharded_cell(spec, SCALE_PROTOCOL, n_shards)
            assert result.ok, (
                f"oracle violation at {n_shards} shards: "
                f"{result.report.description}"
            )
            assert not result.atomicity_violations
            committed += len(result.committed)
            multi_commits += sum(
                1 for verdict in result.decisions.values()
                if verdict == "commit"
            )
            rounds += result.coordinator["rounds"]
        elapsed = time.perf_counter() - start
        if n_shards > 1:
            # the 2PC path must be exercised, not routed around
            assert multi_commits > 0, (
                f"{n_shards}-shard sweep committed no distributed "
                "transaction — the coordinator was never exercised"
            )
        points.append(
            {
                "shards": n_shards,
                "committed": committed,
                "multi_commits": multi_commits,
                "rounds_2pc": rounds,
                "wall_s": round(elapsed, 3),
                "commits_per_s": round(committed / elapsed, 2),
            }
        )
    base = points[0]["commits_per_s"]
    for point in points:
        point["speedup"] = round(point["commits_per_s"] / base, 3)
    return {
        "protocol": SCALE_PROTOCOL,
        "seeds": list(SCALE_SEEDS),
        "points": points,
    }


# ---------------------------------------------------------------------------
# 2. cross-shard fuzz cells
# ---------------------------------------------------------------------------


def _fuzz_section() -> dict:
    campaign = run_campaign(
        seeds=FUZZ_SEEDS,
        profile=GeneratorProfile.smoke(),
        shards=FUZZ_SHARDS,
    )
    assert campaign.ok, "sharded smoke campaign hit simulator errors"
    assert not campaign.violations, (
        f"cross-shard oracle violations: {campaign.violations}"
    )
    runs = sum(t.runs for t in campaign.tallies.values())
    return {
        "shards": FUZZ_SHARDS,
        "seeds": len(FUZZ_SEEDS),
        "runs": runs,
        "committed": sum(t.committed for t in campaign.tallies.values()),
        "violations": 0,
    }


# ---------------------------------------------------------------------------
# 3. one-shard byte identity with the single-core executor
# ---------------------------------------------------------------------------


def _identity_section() -> dict:
    spec = generate(IDENTITY_SEED, GeneratorProfile.smoke())
    checked = []
    for protocol in IDENTITY_PROTOCOLS:
        sharded = run_sharded_cell(spec, protocol, 1, collect_events=True)
        reference = single_core_text(spec, protocol)
        assert sharded.canonical_text() == reference, (
            f"--shards 1 diverged from the single-core executor under "
            f"{protocol}"
        )
        checked.append(protocol)
    return {"seed": IDENTITY_SEED, "protocols": checked, "identical": True}


# ---------------------------------------------------------------------------
# the trajectory artifact
# ---------------------------------------------------------------------------


def run_scale_bench() -> dict:
    return {
        "label": os.environ.get("BENCH_SCALE_LABEL", "c16-scale"),
        "cpus": available_cpus(),
        "python": platform.python_version(),
        "sweep": _sweep_section(),
        "fuzz": _fuzz_section(),
        "identity": _identity_section(),
    }


def _render(entry: dict) -> str:
    sweep = entry["sweep"]
    fuzz = entry["fuzz"]
    rows = [
        [
            f"{point['shards']} shard(s)",
            f"{point['committed']} commits "
            f"({point['multi_commits']} distributed)",
            f"{point['rounds_2pc']} 2PC rounds",
            f"{point['wall_s']}s",
            f"{point['commits_per_s']}/s",
            f"x{point['speedup']}",
        ]
        for point in sweep["points"]
    ]
    rows.append(
        [
            f"fuzz x{fuzz['shards']} shards",
            f"{fuzz['runs']} cells",
            f"{fuzz['committed']} commits",
            "-",
            f"{fuzz['violations']} violations",
            "-",
        ]
    )
    rows.append(
        [
            "1-shard identity",
            ", ".join(entry["identity"]["protocols"]),
            "byte-identical",
            "-",
            "-",
            "-",
        ]
    )
    return render_table(
        ["configuration", "work", "coordination", "wall", "throughput",
         "speedup"],
        rows,
        title=f"C16 — shard scaling, {sweep['protocol']}, "
        f"label={entry['label']} (cpus={entry['cpus']})",
    )


def test_scale_trajectory(benchmark):
    entry = benchmark.pedantic(run_scale_bench, rounds=1, iterations=1)
    write_trajectory(entry)
    emit("scale_trajectory", _render(entry))

    points = {p["shards"]: p for p in entry["sweep"]["points"]}
    # claims that hold on any machine
    assert entry["fuzz"]["violations"] == 0
    assert entry["identity"]["identical"]
    assert points[2]["multi_commits"] > 0
    assert points[4]["multi_commits"] > 0
