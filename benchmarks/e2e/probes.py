"""Three probes of costs no workload isolates; reported under ``--trace`` only.

They run in the workload's pinned subprocess, against a fresh service with
the ``mem_k8`` configuration, after the traced reps.
"""

from __future__ import annotations

import statistics
import time

from registry import HOSTED_SEED, TENANTS, WORKLOADS

#: checkpoints each of the 8 work-only programs of the hand-off probe makes
HANDOFF_WORK = 250
PINGS = 200
SINGLE_SUBMITS = 64


def _service():
    from repro.service.service import ServiceConfig, TransactionService

    return TransactionService(
        ServiceConfig(seed=HOSTED_SEED, **WORKLOADS["mem_k8"].config)
    )


def handoff_us() -> float:
    """The pure baton cost: one batch of 8 programs that only ``work``, so
    every checkpoint is a hand-off to the controller and back with no lock,
    dispatch or log in between.  Wall / checkpoints, median of 3 batches."""
    from repro.runtime.program import TransactionProgram

    executor = _service().executor
    samples = []
    for batch in range(3):
        programs = [
            TransactionProgram(
                f"probe{batch}.{i}", lambda api: api.work(HANDOFF_WORK)
            )
            for i in range(8)
        ]
        begun = time.perf_counter()
        result = executor.run(programs)
        took = time.perf_counter() - begun
        if not result.all_committed:
            raise RuntimeError("hand-off probe: a work-only program failed")
        samples.append(took / (8 * HANDOFF_WORK) * 1e6)
    return statistics.median(samples)


def server_probes() -> dict:
    """Loopback round trips: ping, and what a socket adds to one submit."""
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceServer

    service = _service()
    ops = [["work", 1]]
    clock = time.perf_counter

    def timed(call, count) -> float:
        samples = []
        for _ in range(count):
            begun = clock()
            call()
            samples.append(clock() - begun)
        return statistics.median(samples)

    def committed(reply) -> None:
        if reply.get("status") != "committed":
            raise RuntimeError(f"submit probe answered {reply}")

    with ServiceServer(service, port=0, metrics_port=0) as server:
        with ServiceClient(server.host, server.port) as client:
            if not client.ping():
                raise RuntimeError("ping probe: no answer")
            ping_s = timed(client.ping, PINGS)
            socket_s = timed(
                lambda: committed(client.submit(TENANTS[0], ops)), SINGLE_SUBMITS
            )
        direct_s = timed(
            lambda: committed(service.submit(TENANTS[0], ops)), SINGLE_SUBMITS
        )
    return {
        "server.ping_rtt_us": ping_s * 1e6,
        "server.submit_rtt_overhead_ms": (socket_s - direct_s) * 1e3,
    }


def run_probes() -> dict:
    return {"executor.handoff_us": handoff_us(), **server_probes()}
