"""What one commit leaves in the heap of a running service.

The judges read every action of every committed call tree, so the service
keeps each committed tree for its whole life.  This pins how much else a
commit leaves behind: slotted call-tree nodes with no empty containers on
primitive actions, and no per-attempt runtime (worker, thread, baton)
pinned by a finished attempt's context.
"""

import gc
import random
import tracemalloc

from repro.service.client import generate_ops
from repro.service.service import ServiceConfig, TransactionService

#: call trees with an empty list and set on every node and a worker pinned
#: per finished attempt retained ~26 KB per commit here
MAX_RETAINED_BYTES_PER_COMMIT = 18 * 1024


def _commit_all(service, rng, catalog, count: int) -> int:
    """Commit ``count`` generated requests in waves of 8."""
    committed = 0
    todo = [generate_ops(rng, catalog) for _ in range(count)]
    while todo:
        wave, todo = todo[:8], todo[8:]
        pending = [
            service.submit_async(("alpha", "beta")[slot % 2], ops)
            for slot, ops in enumerate(wave)
        ]
        for ops, (rejected, reply) in zip(wave, pending):
            assert rejected is None
            if reply.wait(30).get("status") == "committed":
                committed += 1
            else:
                todo.append(ops)
    return committed


def test_service_retains_little_per_commit():
    service = TransactionService(
        ServiceConfig(seed=7, protocol="open-nested-oo", online_certify=False)
    ).start()
    try:
        catalog = service.catalog()
        rng = random.Random(7)
        _commit_all(service, rng, catalog, 96)  # warm caches and pools
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            commits = _commit_all(service, rng, catalog, 200)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    finally:
        service.stop()
    assert commits == 200
    assert retained / commits <= MAX_RETAINED_BYTES_PER_COMMIT, (
        f"{retained / commits / 1024:.1f} KB retained per commit"
    )
