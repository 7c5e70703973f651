"""Greedy counterexample shrinking (delta debugging over workload specs).

When the oracle flags a violation, the failing :class:`WorkloadSpec` is
usually much larger than the kernel of the failure.  The shrinker repeatedly
tries structure-removing edits — drop a whole program, drop a single
top-level send, drop an unreferenced object — re-running the failing
(protocol, executor-seed) cell after each edit and keeping the edit whenever
the oracle still reports a violation.  The result is a *minimal* spec in the
1-greedy sense: removing any one remaining program or send makes the
failure disappear.

The minimal spec is emitted as a JSON counterexample file whose ``workload``
field feeds straight back into :func:`~repro.catalog.WorkloadSpec.
from_dict`, so ``python -m repro fuzz --replay <file>`` (or ``--seed N`` for
unshrunk reproduction) replays the exact failure.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.catalog import WorkloadSpec
from repro.core.certify import certify_history
from repro.core.judge import Ablation, strictness_for
from repro.errors import ReproError
from repro.fuzz.driver import execute_cell

#: counterexample file format version (pinned by the regression tests)
COUNTEREXAMPLE_VERSION = 1


@dataclass
class ShrinkStats:
    """How much work shrinking did and how much it removed."""

    evals: int = 0
    programs_before: int = 0
    programs_after: int = 0
    sends_before: int = 0
    sends_after: int = 0
    objects_before: int = 0
    objects_after: int = 0

    def to_dict(self) -> dict:
        return {
            "evals": self.evals,
            "programs": [self.programs_before, self.programs_after],
            "sends": [self.sends_before, self.sends_after],
            "objects": [self.objects_before, self.objects_after],
        }


def _count_sends(spec: WorkloadSpec) -> int:
    return sum(
        1 for p in spec.programs for op in p.ops if op[0] == "send"
    )


def still_fails(
    spec: WorkloadSpec,
    protocol: str,
    *,
    exec_seed: int,
    ablation: Ablation | None,
) -> bool:
    """Does the candidate spec still reproduce the oracle violation?

    The candidate history is judged by the certifier
    (:func:`~repro.core.certify.certify_history`) without the canonical
    report: commits are fed in order, the fast path takes what it can, and
    the first cycle short-circuits — the shrinker only needs the boolean.
    """
    if not spec.programs:
        return False
    try:
        result = execute_cell(spec, protocol, exec_seed=exec_seed)
        return certify_history(
            result,
            ablation,
            strict_cross_object=strictness_for(protocol),
            with_oracle=False,
        ).violation
    except ReproError:
        # A candidate that crashes the simulator is not the failure we are
        # chasing; reject the edit.
        return False


def _referenced_objects(spec: WorkloadSpec) -> set[str]:
    """Objects reachable from the remaining programs (direct or by call)."""
    reachable: set[str] = set()
    frontier = [
        op[1] for p in spec.programs for op in p.ops if op[0] == "send"
    ]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        try:
            ospec = spec.object(name)
        except KeyError:
            continue
        for plan in ospec.methods:
            frontier.extend(
                op[1] for op in plan.plan if op[0] == "call"
            )
    return reachable


def shrink(
    spec: WorkloadSpec,
    protocol: str,
    *,
    exec_seed: int,
    ablation: Ablation | None = None,
    max_evals: int = 400,
) -> tuple[WorkloadSpec, ShrinkStats]:
    """Greedily minimize a failing spec while the failure reproduces."""
    stats = ShrinkStats(
        programs_before=len(spec.programs),
        sends_before=_count_sends(spec),
        objects_before=len(spec.objects),
    )
    current = copy.deepcopy(spec)

    def attempt(candidate: WorkloadSpec) -> bool:
        stats.evals += 1
        return still_fails(
            candidate, protocol, exec_seed=exec_seed, ablation=ablation
        )

    changed = True
    while changed and stats.evals < max_evals:
        changed = False
        # Pass 1: drop whole programs, largest savings first.
        for i in range(len(current.programs) - 1, -1, -1):
            if len(current.programs) <= 2:
                break  # a violation needs at least two transactions
            candidate = copy.deepcopy(current)
            del candidate.programs[i]
            if attempt(candidate):
                current = candidate
                changed = True
        # Pass 2: drop individual sends (with any think op that follows).
        for p in range(len(current.programs)):
            ops = current.programs[p].ops
            i = len(ops) - 1
            while i >= 0:
                if ops[i][0] != "send":
                    i -= 1
                    continue
                candidate = copy.deepcopy(current)
                cops = candidate.programs[p].ops
                end = i + 1
                if end < len(cops) and cops[end][0] == "work":
                    end += 1
                del cops[i:end]
                if any(op[0] == "send" for op in cops) and attempt(candidate):
                    current = candidate
                    ops = current.programs[p].ops
                    changed = True
                i -= 1
        if stats.evals >= max_evals:
            break

    # Final pass: drop objects no remaining program can reach (no re-run
    # needed — unreachable objects cannot affect the history).
    reachable = _referenced_objects(current)
    current.objects = [o for o in current.objects if o.name in reachable]

    stats.programs_after = len(current.programs)
    stats.sends_after = _count_sends(current)
    stats.objects_after = len(current.objects)
    return current, stats


def counterexample_dict(
    spec: WorkloadSpec,
    protocol: str,
    *,
    exec_seed: int,
    ablation: Ablation | None,
    report,
    stats: ShrinkStats,
) -> dict:
    """The pinned on-disk counterexample format (see tests/fuzz)."""
    return {
        "version": COUNTEREXAMPLE_VERSION,
        "generator_seed": spec.seed,
        "exec_seed": exec_seed,
        "protocol": protocol,
        "ablation": ablation.to_dict() if ablation else None,
        "violation": {
            "oo_serializable": report.oo_serializable,
            "conventional_serializable": report.conventional_serializable,
            "committed": report.committed,
            "description": report.description,
        },
        "shrink": stats.to_dict(),
        "workload": spec.to_dict(),
    }
