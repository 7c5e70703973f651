"""Service-level fault sites: the overload half of the fault plane.

:class:`~repro.faults.plan.FaultPlan` injects *system* faults (crashes,
transient dispatch failures, lost wakeups).  A multi-tenant service dies in
different ways: clients that trickle bytes, sessions that stall mid-frame,
connections dropped after a request was admitted, and burst arrivals that
slam the admission queue.  :class:`ServiceFaultPlan` describes one load
run's worth of those faults, derived from a seed with the same
occurrence-counter discipline as the crash plan — the *n*-th consultation
of a named site fires if and only if the plan armed occurrence *n*, so a
``(seed, site census)`` pair replays the identical fault schedule.

The plan is consulted by the load driver / client sessions (the service
itself stays fault-free: a server that injected its own faults could not
distinguish them from bugs):

- ``client.slow`` — pause before sending the next request (a slow client
  holding its admission slot);
- ``client.stall`` — send a *partial* request frame and stop, forcing the
  server's session read deadline to fire mid-transaction;
- ``client.disconnect`` — drop the connection right after submitting,
  before reading the response (the admitted commit must survive);
- ``arrival.burst`` — fire the next ``burst_size`` requests back-to-back
  with no pacing (an arrival spike against the admission queue).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: every service fault site, in the order campaigns sweep them
SERVICE_FAULT_SITES = (
    "client.slow",
    "client.stall",
    "client.disconnect",
    "arrival.burst",
)


@dataclass
class ServiceFaultPlan:
    """One load run's service faults, driven by per-site hit counters."""

    #: consultations (0-based) of ``client.slow`` that pause the client
    slow_at: frozenset = frozenset()
    #: consultations of ``client.stall`` that freeze a session mid-frame
    stall_at: frozenset = frozenset()
    #: consultations of ``client.disconnect`` that drop the connection
    disconnect_at: frozenset = frozenset()
    #: consultations of ``arrival.burst`` that fire an arrival spike
    burst_at: frozenset = frozenset()
    #: how long a slow client pauses (seconds, real time)
    slow_delay_s: float = 0.05
    #: how many requests a burst sends back-to-back
    burst_size: int = 4
    #: per-site hit counters (also the census of a counting pass)
    counts: dict = field(default_factory=dict)

    # -- site hooks ---------------------------------------------------------

    def _consult(self, site: str, armed: frozenset) -> bool:
        n = self.counts.get(site, 0)
        self.counts[site] = n + 1
        return n in armed

    def slow_client(self) -> bool:
        """Should this (counted) request be preceded by a client-side pause?"""
        return self._consult("client.slow", self.slow_at)

    def stall_session(self) -> bool:
        """Should this (counted) request stall mid-frame instead of landing?"""
        return self._consult("client.stall", self.stall_at)

    def drop_connection(self) -> bool:
        """Should the client vanish right after submitting this request?"""
        return self._consult("client.disconnect", self.disconnect_at)

    def burst(self) -> bool:
        """Should an arrival burst start at this (counted) request?"""
        return self._consult("arrival.burst", self.burst_at)

    @property
    def armed(self) -> bool:
        return bool(
            self.slow_at or self.stall_at or self.disconnect_at or self.burst_at
        )

    # -- construction -------------------------------------------------------

    @staticmethod
    def none() -> "ServiceFaultPlan":
        """A fault-free plan (counting pass / clean baseline run)."""
        return ServiceFaultPlan()

    @staticmethod
    def from_seed(
        seed: int | tuple,
        n_requests: int,
        *,
        p_slow: float = 0.15,
        p_stall: float = 0.08,
        p_disconnect: float = 0.08,
        p_burst: float = 0.1,
        slow_delay_s: float = 0.05,
        burst_size: int = 4,
    ) -> "ServiceFaultPlan":
        """Arm a plan for a run of ``n_requests`` request slots.

        Each request slot independently draws each fault kind with the
        given probability, from an RNG seeded on ``(seed, "service-faults")``
        — disjoint from the workload generator's stream, so arming faults
        never perturbs the generated programs.  The seed enters through its
        ``repr`` (never ``hash()``, which is salted per process for strings),
        so any tuple of ints and strings is a reproducible seed.
        """
        rng = random.Random((seed, "service-faults").__repr__())
        slow, stall, disconnect, burst = set(), set(), set(), set()
        for i in range(n_requests):
            if rng.random() < p_slow:
                slow.add(i)
            if rng.random() < p_stall:
                stall.add(i)
            if rng.random() < p_disconnect:
                disconnect.add(i)
            if rng.random() < p_burst:
                burst.add(i)
        return ServiceFaultPlan(
            slow_at=frozenset(slow),
            stall_at=frozenset(stall),
            disconnect_at=frozenset(disconnect),
            burst_at=frozenset(burst),
            slow_delay_s=slow_delay_s,
            burst_size=burst_size,
        )

    @staticmethod
    def for_client(
        seed: int, tenant: str, idx: int, n_requests: int, **knobs
    ) -> "ServiceFaultPlan":
        """A distinct deterministic plan per client thread of a load run:
        the client's identity is folded into the plan seed."""
        return ServiceFaultPlan.from_seed(
            (seed, tenant, idx), n_requests, **knobs
        )

    def to_dict(self) -> dict:
        """The armed faults (not the counters): a replayable plan."""
        return {
            "slow_at": sorted(self.slow_at),
            "stall_at": sorted(self.stall_at),
            "disconnect_at": sorted(self.disconnect_at),
            "burst_at": sorted(self.burst_at),
            "slow_delay_s": self.slow_delay_s,
            "burst_size": self.burst_size,
        }

    @staticmethod
    def from_dict(data: dict) -> "ServiceFaultPlan":
        return ServiceFaultPlan(
            slow_at=frozenset(data.get("slow_at", ())),
            stall_at=frozenset(data.get("stall_at", ())),
            disconnect_at=frozenset(data.get("disconnect_at", ())),
            burst_at=frozenset(data.get("burst_at", ())),
            slow_delay_s=data.get("slow_delay_s", 0.05),
            burst_size=data.get("burst_size", 4),
        )

    def rearm(self) -> "ServiceFaultPlan":
        """A fresh copy with zeroed counters (replay the same faults)."""
        return ServiceFaultPlan.from_dict(self.to_dict())

    def describe(self) -> str:
        if not self.armed:
            return "no service faults"
        parts = []
        if self.slow_at:
            parts.append(f"slow@{sorted(self.slow_at)}")
        if self.stall_at:
            parts.append(f"stall@{sorted(self.stall_at)}")
        if self.disconnect_at:
            parts.append(f"disconnect@{sorted(self.disconnect_at)}")
        if self.burst_at:
            parts.append(f"burst@{sorted(self.burst_at)}")
        return ", ".join(parts)
