"""The cross-shard commit coordinator (Def 15/16 at global scope).

Each shard certifies its *local* history with the full Def 10–14 engine —
objects never span shards, so every object schedule is wholly visible to
exactly one shard.  What a shard cannot see is a cycle threaded through
*other* shards' objects: T1 → T2 on shard A and T2 → T1 on shard B, both
locally acyclic.  The coordinator closes that gap.  At every barrier each
shard ships its current added-action dependency constraints (Definition 15
edges, projected to the running batch's committed-or-prepared transactions
and mapped back to base labels); the coordinator replays their union into an
:class:`~repro.core.graph.OnlineTopology` and any transaction whose
prepare would close a cycle (Definition 16: the relation must remain
acyclic) is voted down before it commits anywhere.  A batch ends at a
quiescent point no cycle spans (DESIGN §6.15): 2PC state lives one batch.

Decisions follow presumed-abort two-phase commit: a ``decide`` record is
forced to the coordinator's own log *before* the verdict is broadcast, so
recovery can resolve prepared-but-undecided branches (no decide record →
abort; decide-commit record → commit, see ``repro.shard.recovery``).

Shards resend their **full** edge set each round rather than deltas.  The
topology cannot un-insert edges (aborted transactions' edges must go) and
stops maintaining its order after the first cycle, so each round rebuilds
it from the latest snapshots — one batch's edges, cheaper than deltas.
"""

from __future__ import annotations

from repro.core.graph import OnlineTopology
from repro.errors import SimulationError

COMMIT = "commit"
ABORT = "abort"


def canonical_cycle(cycle: list[str]) -> tuple[str, ...]:
    """Rotate a witness ``[n0, ..., n0]`` so the smallest node leads.

    Used to deduplicate violation reports: the same committed cycle can be
    rediscovered every round from a different entry edge.
    """
    nodes = list(cycle[:-1])
    pivot = nodes.index(min(nodes))
    rotated = nodes[pivot:] + nodes[:pivot]
    return tuple(rotated + [rotated[0]])


class Coordinator:
    """Drives 2PC verdicts and the global Def 16 acyclicity check.

    ``multi`` maps each of the running batch's distributed transactions to
    the sorted tuple of shard ids expected to vote.  Single-shard
    transactions never reach the coordinator (the 1PC fast path).
    """

    def __init__(self, multi: dict[str, tuple[int, ...]], wal=None):
        self.wal = wal
        self.register(multi)
        #: committed-only cycles — genuine serializability violations
        self.violations: list[tuple[str, ...]] = []
        self._violation_keys: set[tuple[str, ...]] = set()
        self.rounds = 0
        self.cycle_aborts = 0
        self.deadlock_aborts = 0
        self.crash_aborts = 0

    def register(self, multi: dict[str, tuple[int, ...]]) -> None:
        """Start a batch: its distributed transactions, votes and verdicts
        replace the last batch's, all decided.  The counters and
        ``violations`` stay cumulative."""
        self.multi = {base: tuple(shards) for base, shards in multi.items()}
        #: base label -> COMMIT | ABORT, over the running batch
        self.decisions: dict[str, str] = {}
        #: base label -> shards whose prepared vote arrived
        self._votes: dict[str, set[int]] = {base: set() for base in self.multi}

    # -- verdicts ------------------------------------------------------------

    def _decide(self, base: str, verdict: str) -> None:
        if base in self.decisions:
            return
        self.decisions[base] = verdict
        if self.wal is not None:
            # Force the verdict before anyone can act on it: a crash after
            # this sync leaves a record recovery will honor; a crash before
            # it leaves prepared branches that presumed-abort cleans up.
            self.wal.append({"t": "decide", "txn": base, "verdict": verdict})
            self.wal.sync()

    def _record_violation(self, cycle: list[str]) -> None:
        key = canonical_cycle(cycle)
        if key not in self._violation_keys:
            self._violation_keys.add(key)
            self.violations.append(key)

    # -- the per-barrier round -----------------------------------------------

    def round(self, reports: list[dict]) -> dict[str, str]:
        """Digest one barrier's shard reports; return decisions new this round.

        Each report carries the shard's state over the running batch:

        - ``prepared``: base labels with a durable prepare vote
        - ``failed``: base labels whose branch gave up or errored pre-vote
        - ``committed_local``: the batch's commits (base labels)
        - ``edges``: the full Def 15 edge set over the batch's committed ∪
          prepared transactions, base-mapped
        - ``crashed``: the shard died (its votes are void)
        - ``status``/``advanced``: stall-vs-progress signals for deadlock
          detection
        """
        self.rounds += 1
        before = dict(self.decisions)

        crashed_shards = {r["shard"] for r in reports if r.get("crashed")}
        for report in reports:
            for base in report.get("prepared", ()):
                if base in self._votes:
                    self._votes[base].add(report["shard"])

        # Branch failures and shard crashes void the whole transaction.
        for report in reports:
            for base in report.get("failed", ()):
                if base in self.multi:
                    self._decide(base, ABORT)
        if crashed_shards:
            for base, shards in sorted(self.multi.items()):
                if base not in self.decisions and crashed_shards & set(shards):
                    self._decide(base, ABORT)
                    self.crash_aborts += 1

        committed_multi = {
            base for base, v in self.decisions.items() if v == COMMIT
        }
        committed_local: set[str] = set()
        for report in reports:
            committed_local.update(report.get("committed_local", ()))
        all_edges: set[tuple[str, str]] = set()
        for report in reports:
            if report["shard"] in crashed_shards:
                continue
            all_edges.update(tuple(edge) for edge in report.get("edges", ()))

        ready = {
            base
            for base, shards in self.multi.items()
            if base not in self.decisions and self._votes[base] >= set(shards)
        }

        # Global Def 16 check: the union of shard constraint sets over the
        # candidate commit set must stay acyclic.  Abort ready transactions
        # off any cycle (smallest label first — deterministic); a cycle
        # with no ready member is already fully committed, i.e. a real
        # violation the protocol under test let through.
        suppressed: set[tuple[str, str]] = set()
        while True:
            relevant = committed_multi | committed_local | ready
            topology: OnlineTopology[str] = OnlineTopology()
            witness = None
            for src, dst in sorted(all_edges - suppressed):
                if src in relevant and dst in relevant and src != dst:
                    witness = topology.add_edge_checked(src, dst)
                    if witness is not None:
                        break
            if witness is None:
                break
            victims = sorted(set(witness) & ready)
            if victims:
                self._decide(victims[0], ABORT)
                self.cycle_aborts += 1
                ready.discard(victims[0])
            else:
                self._record_violation(witness)
                # Keep looking for independent cycles behind this one.
                suppressed.add((witness[0], witness[1]))

        for base in sorted(ready):
            self._decide(base, COMMIT)

        new = {b: v for b, v in self.decisions.items() if b not in before}
        if not new:
            self._break_deadlock(reports)
            new = {b: v for b, v in self.decisions.items() if b not in before}
        return new

    def _break_deadlock(self, reports: list[dict]) -> None:
        """Abort one transaction when the system is globally wedged.

        A shard stalls when every runnable worker is parked on a ``2pc:``
        wait key; if *no* shard made progress and no verdict was produced,
        the prepared branches are waiting on votes that blocked branches
        can never cast (a cross-shard 2PC deadlock).  Aborting the smallest
        partially-prepared label releases its locks everywhere and lets the
        rest drain; the aborted transaction restarts on its shards like any
        other Def 16 victim.
        """
        stalled = [r for r in reports if r.get("status") == "stalled"]
        if not stalled:
            return
        if any(r.get("advanced") for r in reports):
            return
        undecided = [
            base
            for base in sorted(self.multi)
            if base not in self.decisions and self._votes[base]
        ]
        if not undecided:
            raise SimulationError(
                "sharded runtime wedged: stalled shards but no prepared "
                "cross-shard transaction to abort"
            )
        self._decide(undecided[0], ABORT)
        self.deadlock_aborts += 1

    # -- summary -------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "rounds": self.rounds,
            "cycle_aborts": self.cycle_aborts,
            "deadlock_aborts": self.deadlock_aborts,
            "crash_aborts": self.crash_aborts,
            "violations": [list(v) for v in self.violations],
        }
