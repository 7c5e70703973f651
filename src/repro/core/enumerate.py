"""Exhaustive schedule-space enumeration.

The cleanest quantitative form of "oo-serializability admits more
concurrency": take a small set of transaction programs, enumerate **every**
interleaving of their primitive actions (respecting program order), and
classify each schedule under both criteria.  Since conventional conflict
serializability implies oo-serializability (semantics only remove
conflicts), every schedule falls into one of three classes:

- ``both`` — serializable under both criteria,
- ``oo_only`` — the concurrency *gained* by the paper's definition,
- ``neither`` — genuinely non-serializable.

Used by bench C5 and by the property tests (the ``conventional_only`` class
must always be empty).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.core.commutativity import CommutativityRegistry
from repro.core.serializability import analyze_system, conventional_baseline
from repro.core.transactions import TransactionSystem

#: builds a *fresh* system + registry; called once per enumerated schedule
SystemBuilder = Callable[[], tuple[TransactionSystem, CommutativityRegistry]]


@dataclass
class ScheduleSpace:
    """Census of all interleavings of one transaction set."""

    total: int = 0
    both: int = 0
    oo_only: int = 0
    neither: int = 0
    conventional_only: int = 0  # must stay 0: oo admits a superset
    #: one example interleaving per class (tuples of (top, index))
    examples: dict[str, tuple] = field(default_factory=dict)

    @property
    def conventional_ok(self) -> int:
        return self.both + self.conventional_only

    @property
    def oo_ok(self) -> int:
        return self.both + self.oo_only

    @property
    def gain(self) -> float:
        """Relative concurrency gain: extra admissible schedules / conventional."""
        if self.conventional_ok == 0:
            return float("inf") if self.oo_only else 0.0
        return self.oo_only / self.conventional_ok

    def row(self) -> list:
        return [
            self.total,
            self.conventional_ok,
            self.oo_ok,
            self.oo_only,
            f"{100 * self.oo_ok / max(1, self.total):.0f}%",
            f"{100 * self.conventional_ok / max(1, self.total):.0f}%",
        ]

    @staticmethod
    def headers() -> list[str]:
        return [
            "schedules",
            "conv-ok",
            "oo-ok",
            "oo-only",
            "oo-admit%",
            "conv-admit%",
        ]


def interleavings(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """All merge orders of ``len(counts)`` streams with the given lengths.

    Yields tuples of stream indices, e.g. ``counts=[2, 1]`` yields
    ``(0,0,1), (0,1,0), (1,0,0)``.
    """

    def recurse(remaining: list[int], prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if not any(remaining):
            yield tuple(prefix)
            return
        for stream, left in enumerate(remaining):
            if left:
                remaining[stream] -= 1
                prefix.append(stream)
                yield from recurse(remaining, prefix)
                prefix.pop()
                remaining[stream] += 1

    return recurse(list(counts), [])


def count_interleavings(counts: list[int]) -> int:
    """Multinomial coefficient: the size of the schedule space."""
    from math import factorial

    total = factorial(sum(counts))
    for count in counts:
        total //= factorial(count)
    return total


def classify_schedules(
    build: SystemBuilder,
    *,
    limit: int | None = None,
    propagate_cross_object: bool = True,
) -> ScheduleSpace:
    """Enumerate and classify every interleaving of the built system.

    ``build`` must return a fresh, *deterministic* system: the enumeration
    relies on each rebuild producing the same per-transaction primitive
    sequences (in program order).  ``limit`` caps the number of schedules
    (safety valve; the census is then partial).
    """
    probe, _ = build()
    per_top = [
        [a for a in txn.actions() if a.is_primitive] for txn in probe.tops
    ]
    counts = [len(prims) for prims in per_top]
    space = ScheduleSpace()

    for order in interleavings(counts):
        if limit is not None and space.total >= limit:
            break
        system, registry = build()
        streams = [
            [a for a in txn.actions() if a.is_primitive] for txn in system.tops
        ]
        positions = [0] * len(streams)
        sequence = []
        for stream in order:
            sequence.append(streams[stream][positions[stream]])
            positions[stream] += 1
        system.order_primitives(sequence)

        conventional = conventional_baseline(system).serializable
        verdict, _ = analyze_system(
            system, registry, propagate_cross_object=propagate_cross_object
        )
        space.total += 1
        if conventional and verdict.oo_serializable:
            space.both += 1
            space.examples.setdefault("both", order)
        elif verdict.oo_serializable:
            space.oo_only += 1
            space.examples.setdefault("oo_only", order)
        elif conventional:
            space.conventional_only += 1
            space.examples.setdefault("conventional_only", order)
        else:
            space.neither += 1
            space.examples.setdefault("neither", order)
    return space
