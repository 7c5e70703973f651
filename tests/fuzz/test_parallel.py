"""Parallel campaign execution must be invisible in the results.

``run_campaign``/``run_crash_campaign`` with ``jobs > 1`` shard seeds
across worker processes; the campaign report is required to be identical
to a serial run over the same seeds — same tallies, same violations, same
errors, same early-stop point.  These tests run both modes and compare
the results structurally (the CLI layer then renders identical bytes).
"""

from pathlib import Path

from repro.analysis import render_table
from repro.fuzz.crash import (
    DurableConfig,
    run_crash_campaign,
    run_seed_crash_cells,
)
from repro.fuzz.driver import run_campaign, run_seed_cells
from repro.fuzz.generator import GeneratorProfile
from repro.fuzz.parallel import iter_seed_results

SMOKE = GeneratorProfile.smoke()


def _campaign_digest(campaign):
    return (
        campaign.seeds_run,
        campaign.table(),
        campaign.errors,
        [
            (v.seed, v.protocol, v.report, v.spec.to_dict(), v.ablation)
            for v in campaign.violations
        ],
    )


def test_iter_seed_results_preserves_seed_order():
    seeds = [9, 3, 7, 1, 8]
    serial = list(iter_seed_results(_double, seeds, jobs=1))
    parallel = list(iter_seed_results(_double, seeds, jobs=2))
    assert serial == parallel == [(s, s * 2) for s in seeds]


def _double(seed):  # module-level: picklable for the pool
    return seed * 2


def test_fuzz_campaign_parallel_equals_serial():
    kwargs = dict(
        seeds=list(range(8)),
        protocols=("page-2pl", "open-nested-oo"),
        profile=SMOKE,
    )
    serial = run_campaign(jobs=1, **kwargs)
    parallel = run_campaign(jobs=2, **kwargs)
    assert serial.ok
    assert _campaign_digest(serial) == _campaign_digest(parallel)


def test_fuzz_campaign_parallel_early_stop_equals_serial():
    """An ablated campaign stops mid-sweep at max_violations; the parallel
    fold must stop at exactly the same seed with the same accounting."""
    kwargs = dict(
        seeds=list(range(10)),
        protocols=("open-nested-oo",),
        profile=SMOKE,
        ablate_first_leaf=True,
        max_violations=1,
    )
    serial = run_campaign(jobs=1, **kwargs)
    parallel = run_campaign(jobs=3, **kwargs)
    assert serial.violations, "ablation produced no violation to stop on"
    assert serial.seeds_run < len(kwargs["seeds"])
    assert _campaign_digest(serial) == _campaign_digest(parallel)


def test_crash_campaign_parallel_equals_serial():
    kwargs = dict(
        seeds=[0, 1],
        protocols=("open-nested-oo",),
        profile=SMOKE,
        sites=("commit.before", "page-write.after"),
        max_violations=1,
    )
    serial = run_crash_campaign(jobs=1, **kwargs)
    parallel = run_crash_campaign(jobs=2, **kwargs)
    assert serial.seeds_run == parallel.seeds_run
    assert serial.tallies == parallel.tallies
    assert serial.errors == parallel.errors
    assert serial.site_crashes == parallel.site_crashes
    assert [
        (v.seed, v.protocol, v.site, v.outcome, v.counterexample)
        for v in serial.violations
    ] == [
        (v.seed, v.protocol, v.site, v.outcome, v.counterexample)
        for v in parallel.violations
    ]


def _crash_table(campaign, suffix=""):
    header, rows = campaign.table()
    title = (
        f"crash campaign, {campaign.seeds_run} seed(s), "
        f"{campaign.crash_runs} crash run(s){suffix}"
    )
    return render_table(header, rows, title=title)


def test_crash_campaign_matches_pinned_tables():
    """The crash-campaign tables (all five protocols, every armed site) are
    pinned byte for byte: smoke seeds 0-3 in memory, 0-1 on the durable
    store.  Sharded over two workers — ``--jobs`` is invisible."""
    memory = run_crash_campaign(seeds=[0, 1, 2, 3], profile=SMOKE, jobs=2)
    durable = run_crash_campaign(
        seeds=[0, 1], profile=SMOKE, durable=DurableConfig(), jobs=2
    )
    text = "\n".join(
        [_crash_table(memory), _crash_table(durable, " [durable store]"), ""]
    )
    baseline = Path(__file__).parent.parent / "data" / "crash_smoke_baseline.txt"
    assert text == baseline.read_text()


def test_seed_workers_are_deterministic():
    """The per-seed workers the pool ships around must be pure functions of
    the seed: same seed, same outcome objects."""
    assert run_seed_cells(3, profile=SMOKE) == run_seed_cells(3, profile=SMOKE)
    assert run_seed_crash_cells(
        0,
        protocols=("open-nested-oo",),
        profile=SMOKE,
        sites=("commit.before",),
    ) == run_seed_crash_cells(
        0,
        protocols=("open-nested-oo",),
        profile=SMOKE,
        sites=("commit.before",),
    )
