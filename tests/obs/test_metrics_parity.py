"""Metrics/event parity over real fuzz cells: 20 seeds x five protocols.

The counters and the event stream are two independent renderings of the
same run; wherever an instrumentation site pairs a counter bump with an
event emission, the totals must agree exactly.  This is the test that
keeps the two from drifting apart as instrumentation evolves.
"""

from collections import Counter as TallyCounter

import pytest

from repro.catalog import GeneratorProfile, generate
from repro.fuzz.driver import FUZZ_PROTOCOLS, execute_cell
from repro.obs import STAT_KEYS, EventBus, EventLog

SEEDS = range(20)


@pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
def test_counters_agree_with_the_event_stream(protocol):
    profile = GeneratorProfile.smoke()
    for seed in SEEDS:
        spec = generate(seed, profile)
        bus = EventBus()
        log = EventLog(bus)
        result = execute_cell(spec, protocol, bus=bus)
        stats = result.scheduler_stats
        kinds = TallyCounter(event.kind for event in log)

        # The uniform keyset: every protocol reports every key.
        assert set(STAT_KEYS) <= set(stats), (protocol, seed)

        # Counter bumps paired 1:1 with event emissions.
        assert stats["acquired"] == kinds["lock-grant"], (protocol, seed)
        assert stats["deadlocks"] == kinds["deadlock"], (protocol, seed)
        assert stats["wounds"] == kinds["wound"], (protocol, seed)

        # "waits" counts conflict re-checks, the block event only the
        # start of each blocked episode — so it can only be larger.
        assert stats["waits"] >= kinds["lock-block"], (protocol, seed)

        # Every blocked episode ends in a grant (observed by the wait
        # histogram) or in a deadlock abort.
        hist = result.db.metrics.get("lock_wait_ticks")
        assert hist.count <= kinds["lock-block"], (protocol, seed)
        assert hist.count + kinds["deadlock"] >= kinds["lock-block"], (
            protocol,
            seed,
        )

        # The executor-reported stats are the registry, verbatim.
        registry = result.db.metrics
        for key in STAT_KEYS:
            counter = registry.get(f"scheduler_{key}_total")
            assert counter.value == stats[key], (protocol, seed, key)

        # Every transaction attempt that began also ended.
        assert kinds["txn-begin"] == kinds["txn-commit"] + kinds["txn-abort"], (
            protocol,
            seed,
        )
        assert kinds["txn-commit"] >= len(result.committed), (protocol, seed)
