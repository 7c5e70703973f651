"""The deterministic fault-injection plane.

A :class:`FaultPlan` is a declarative description of every fault one run
will suffer, derived from a seed so that any failure is replayable from a
single integer.  The runtime consults the plan at named *sites*:

- **Crash sites** kill the whole system (raise
  :class:`~repro.errors.SimulatedCrash`) at the *n*-th hit of a named
  checkpoint: around a page write, between a subtransaction's durable
  subcommit and the parent's in-memory merge, before/after the commit
  record, mid-compensation during an abort, and mid-recovery.
- **Transient sites** make an individual method dispatch fail with a
  retriable :class:`~repro.errors.TransactionAborted` — the victim rolls
  back and restarts like a deadlock victim.
- **Wakeup drops** swallow a scheduler's lock-release notification,
  modeling a lost wakeup; the executor's tolerance sweep must recover.

Plans are pure counters: the same plan object consulted by the same
deterministic run fires at exactly the same points, which is what makes a
``(workload seed, crash site, occurrence)`` triple a complete reproduction
key for any crash-recovery failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import SimulatedCrash

#: every named crash site, in the order the fuzzer sweeps them
CRASH_SITES = (
    "page-write.before",   # before the slot mutation and its WAL record
    "page-write.after",    # after the mutation, before anything syncs
    "subcommit.before",    # before the durable compensation record
    "subcommit.after",     # compensation durable, parent not yet merged
    "commit.before",       # before the commit record is appended
    "commit.after",        # commit record durable, locks not yet released
    "rollback.step",       # mid-compensation during a top-level abort
    "recovery.step",       # mid-recovery, between two undo steps
)

#: sites that only exist once a run is already recovering
RECOVERY_SITES = ("recovery.step",)

#: sites that only exist with the durable (file-backed) page store; kept
#: out of CRASH_SITES so the in-memory campaign tables stay byte-identical
DURABLE_CRASH_SITES = (
    "checkpoint.mid",      # between ckpt-begin and ckpt-end
    "eviction.mid",        # log forced, dirty victim not yet written back
    "writeback.torn",      # mid image append (torn log tail, older image intact)
)


@dataclass
class FaultPlan:
    """One run's faults, plus the per-site hit counters that drive them."""

    #: crash at the ``crash_at``-th hit (0-based) of this site; None = never
    crash_site: str | None = None
    crash_at: int = 0
    #: dispatch hits (0-based) that fail with a transient abort
    transient_at: frozenset = frozenset()
    #: wake_keys/wake_all calls (0-based) whose notification is swallowed
    drop_wakeups_at: frozenset = frozenset()
    #: per-site hit counters (also the site census of a counting pass)
    counts: dict = field(default_factory=dict)
    #: set once the crash fired; everything downstream checks this
    crashed: bool = False

    # -- site hooks ---------------------------------------------------------

    def hit(self, site: str) -> None:
        """Record one hit of ``site``; crash if the plan says so."""
        n = self.counts.get(site, 0)
        self.counts[site] = n + 1
        if self.crashed:
            raise SimulatedCrash(site, n)
        if site == self.crash_site and n == self.crash_at:
            self.crashed = True
            raise SimulatedCrash(site, n)

    def transient(self, site: str = "dispatch") -> bool:
        """Should this (counted) dispatch fail transiently?"""
        key = f"transient.{site}"
        n = self.counts.get(key, 0)
        self.counts[key] = n + 1
        return n in self.transient_at

    def drop_wakeup(self) -> bool:
        """Should this (counted) wakeup notification be swallowed?"""
        n = self.counts.get("wakeup", 0)
        self.counts["wakeup"] = n + 1
        return n in self.drop_wakeups_at

    # -- construction -------------------------------------------------------

    @staticmethod
    def counting() -> "FaultPlan":
        """A plan with no faults: pass 1 of the fuzzer, tallying site hits."""
        return FaultPlan()

    @staticmethod
    def crash_plan(site: str, occurrence: int) -> "FaultPlan":
        return FaultPlan(crash_site=site, crash_at=occurrence)

    @staticmethod
    def from_census(
        seed: int,
        census: dict,
        *,
        site: str | None = None,
        sites: tuple = CRASH_SITES,
        p_transient: float = 0.2,
        p_drop_wakeup: float = 0.15,
    ) -> "FaultPlan | None":
        """Derive an armed plan from a counting pass's site census.

        Picks the crash occurrence uniformly among the hits the counting
        pass observed (for ``site``, or a seed-chosen hit site from
        ``sites``), and sprinkles transient dispatch failures and wakeup
        drops with small probabilities.  Returns None when no candidate
        site was ever hit — the workload cannot crash there.
        """
        rng = random.Random((seed, site, "fault-plan").__repr__())
        candidates = [
            s for s in sites
            if s not in RECOVERY_SITES and census.get(s, 0) > 0
        ]
        if site is not None:
            candidates = [s for s in candidates if s == site]
        if not candidates:
            return None
        chosen = rng.choice(candidates)
        occurrence = rng.randrange(census[chosen])
        transients: set[int] = set()
        if rng.random() < p_transient:
            dispatches = census.get("transient.dispatch", 0)
            if dispatches:
                transients.add(rng.randrange(dispatches))
        drops: set[int] = set()
        if rng.random() < p_drop_wakeup:
            wakeups = census.get("wakeup", 0)
            if wakeups:
                drops.add(rng.randrange(wakeups))
        return FaultPlan(
            crash_site=chosen,
            crash_at=occurrence,
            transient_at=frozenset(transients),
            drop_wakeups_at=frozenset(drops),
        )

    def to_dict(self) -> dict:
        """The armed faults (not the counters): a replayable plan."""
        return {
            "crash_site": self.crash_site,
            "crash_at": self.crash_at,
            "transient_at": sorted(self.transient_at),
            "drop_wakeups_at": sorted(self.drop_wakeups_at),
        }

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        return FaultPlan(
            crash_site=data.get("crash_site"),
            crash_at=data.get("crash_at", 0),
            transient_at=frozenset(data.get("transient_at", ())),
            drop_wakeups_at=frozenset(data.get("drop_wakeups_at", ())),
        )

    def rearm(self) -> "FaultPlan":
        """A fresh copy with zeroed counters (replay the same faults)."""
        return FaultPlan.from_dict(self.to_dict())

    def describe(self) -> str:
        if self.crash_site is None:
            return "no faults (counting)"
        extras = []
        if self.transient_at:
            extras.append(f"transient@{sorted(self.transient_at)}")
        if self.drop_wakeups_at:
            extras.append(f"drop-wakeup@{sorted(self.drop_wakeups_at)}")
        tail = f" + {', '.join(extras)}" if extras else ""
        return f"crash at {self.crash_site}#{self.crash_at}{tail}"
