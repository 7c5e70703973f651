"""Vbox-style black-box certification of long committed histories.

The exact oracle (:mod:`repro.core.dependency`) re-derives the Definition
10-16 fixpoint from the committed projection; even incrementally that pays
a pairwise Axiom 1 / Definition 7 scan per object, which caps fuzz
histories at hundreds of actions.  Following Vbox (arXiv 2503.05163), the
certifier here exploits two facts the executor already knows:

1. **The commit order is known.**  Transactions are fed to the certifier
   in the order they committed, so any dependency pointing from a later
   commit to an earlier one is the only way a cycle can ever close.

2. **Per-object effect orders are known.**  After
   :func:`~repro.core.dependency.linearize_effects`, every action's
   ``seq`` stamp is its object-schedule position.  If each newly committed
   transaction only *appends* to every object timeline it touches — its
   stamps are larger than everything already certified on that object —
   then every Axiom 1 bootstrap edge points forward in commit order.

Under those two facts acceptance is sound without running the engine at
all: Definition 10 lifts an action edge to the two endpoint *callers*
(same transactions), Definition 11 and the cross-object closure move a
constraint between objects without changing its endpoint transactions,
and Definition 15 records it redundantly — no derivation rule ever flips
an edge's direction or its endpoint tops.  Forward-only bootstrap edges
therefore derive forward-only transaction dependencies: every watched
relation is acyclic and the exact engine would certify the same history.
Inside one transaction the certifier additionally checks that every
sibling group is totally ordered by program precedence, which makes every
same-tree pair a ``same_process`` pair — exempt from conflict by
Definition 9 — so intra-transaction edges reduce to the Definition 7
partial order.

Everything else is *suspicious* and **escalates**: a straggler stamp that
lands inside an already-certified timeline next to a conflicting action,
an unordered sibling pair, a non-monotone stamp inside one tree, or a
Definition 5 extension that manufactures virtual duplicates.  Escalation
is sticky *within an epoch* — the certifier replays the epoch's fed trees
through the exact :class:`~repro.core.dependency.IncrementalDependencyEngine`
(same strictness, online cycle watchers) and routes every later commit of
the epoch through it, so verdicts are exactly the engine's.  On violation
the caller obtains the canonical report (witness strings included) from
:func:`repro.fuzz.oracle.check_history`, which re-analyzes the same
already-linearized, already-extended trees — byte-identical to judging
the history without a certifier in the loop.

Conflict-sparse stretches therefore certify in near-linear time: one tree
walk plus an O(1) append per action, with a bounded ``bisect`` window scan
only when stamps interleave.  Whether a history is conflict-sparse depends
on the workload, and the service's default one is not: under
open-nested-oo with batches of eight (the end-to-end ``audit_k8``
workload, seed 7) 97 of 100 epochs escalate — 52 on
``conflicting-straggler``, 45 on ``extension`` — so there the exact engine
is the audit's cost.  ``certify_escalations_total`` counts the split per
reason on any run.  Measured on that workload (traced, 2-vCPU host, mean
of two runs), the audit takes about 0.87 of 2.3 ms CPU per commit; in a
timed replay of the same epochs about a third of it is the
per-caller-pair pass over the pages (DESIGN §6, decision 16), a sixth the
worklist drain, and the rest is merging schedules and walking trees
(re-stamping, extension, screen).

**Epochs.**  The direction argument above is also a retire rule.  When the
caller knows a *quiescent point* — everything fed so far lies wholly
before everything it will feed later, i.e. every later stamp exceeds every
stamp already fed — it calls :meth:`OnlineCertifier.seal`.  Every bootstrap
edge between a tree fed before the seal and one fed after it is then
oriented before→after by ``(seq, aid)`` (Axiom 1; Definition 5 duplicates
replay their original's stamp; Definition 7 edges never leave a tree), and
every derived edge keeps the endpoint trees and the direction of exactly
one bootstrap edge.  No watched relation can close a cycle through a mixed
edge, so a cycle lies wholly on one side of the seal: the before side is
already certified, and the after side never needed a before-tree.  The
certifier therefore drops everything it holds and starts the next epoch on
the fast path; its work and memory are bounded by one epoch, not by the
history.  The promise is checked, not trusted: a tree carrying a stamp at
or below the sealed high-water mark is refused with a
:class:`~repro.errors.ScheduleError` (DESIGN §6.15 has the proof per
definition).  A certifier that is never sealed — the offline
:func:`certify_history` path, whose trees all overlap — runs one epoch and
behaves exactly as before.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.actions import ActionNode
from repro.core.commutativity import CommutativityRegistry
from repro.core.dependency import IncrementalDependencyEngine, linearize_effects
from repro.core.extension import extend_system
from repro.core.identifiers import SYSTEM_OBJECT, ObjectId, is_virtual
from repro.core.transactions import OOTransaction, TransactionSystem
from repro.errors import ScheduleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.fuzz.oracle import Ablation, OracleReport
    from repro.runtime.executor import ExecutionResult

#: escalation reasons (stable strings: tests and metrics key off them)
ESCALATE_EXTENSION = "extension"
ESCALATE_UNORDERED_SIBLINGS = "unordered-siblings"
ESCALATE_NONMONOTONE = "nonmonotone-seq"
ESCALATE_WINDOW = "straggler-window"
ESCALATE_CONFLICT = "conflicting-straggler"

#: longest already-certified suffix of one object timeline the fast path
#: scans for conflicts before escalating instead
STRAGGLER_SCAN_LIMIT = 64


@dataclass
class CertificationReport:
    """Outcome of certifying one committed history.

    Mirrors the :class:`~repro.fuzz.oracle.OracleReport` consumer surface
    (``violation``, ``oo_serializable``, ``description``) so existing
    tooling can take either; :meth:`as_oracle_report` converts outright.
    """

    ok: bool
    committed: int
    actions: int
    fast_commits: int
    escalated_commits: int
    stragglers_scanned: int
    escalated: bool
    escalation_reason: str | None
    gave_up: int = 0
    #: epochs that observed a commit (a never-sealed certifier runs one)
    #: and how many of them escalated; the counters above are cumulative
    epochs: int = 0
    escalated_epochs: int = 0
    #: canonical exact-engine report, attached whenever ``ok`` is False
    #: (and on demand for consumers that need the conventional baseline)
    oracle: "OracleReport | None" = field(default=None, repr=False)

    @property
    def violation(self) -> bool:
        return not self.ok

    @property
    def oo_serializable(self) -> bool:
        return self.ok

    @property
    def description(self) -> str:
        if self.oracle is not None:
            return self.oracle.description
        mode = (
            f"escalated to exact engine ({self.escalation_reason})"
            if self.escalated
            else "fast path"
        )
        verdict = "oo-serializable" if self.ok else "NOT oo-serializable"
        return (
            f"certified {verdict}: {self.committed} committed / "
            f"{self.actions} actions via {mode} "
            f"({self.fast_commits} fast, {self.escalated_commits} exact)"
        )

    def as_oracle_report(self) -> "OracleReport":
        """This verdict in :class:`OracleReport` shape.

        A fast-path acceptance never computed the conventional baseline or
        constraint counts; they are reported as the verdict itself / zero,
        which keeps every boolean consumer correct (``oo_only`` is then
        simply False — the fast path does not measure the admission delta).
        """
        if self.oracle is not None:
            return self.oracle
        from repro.fuzz.oracle import OracleReport

        return OracleReport(
            oo_serializable=self.ok,
            conventional_serializable=self.ok,
            oo_constraints=0,
            conventional_constraints=0,
            committed=self.committed,
            description=self.description,
            gave_up=self.gave_up,
        )


class _Timeline:
    """One object's certified effect order: parallel (seqs, actions) lists."""

    __slots__ = ("seqs", "actions")

    def __init__(self) -> None:
        self.seqs: list[int] = []
        self.actions: list[ActionNode] = []


class OnlineCertifier:
    """Certify committed transactions one at a time against a growing history.

    The state the certifier holds — the exact engine, the catch-up log,
    the per-object timelines, the trees in ``system`` — belongs to the
    current *epoch*.  :meth:`seal` ends the epoch at a quiescent point and
    drops all of it; the counters, ``escalated`` ("some epoch escalated"),
    ``escalation_reason`` (the most recent) and ``violated`` are cumulative.

    Parameters
    ----------
    system:
        The transaction system holding (or receiving) the committed trees.
        The certifier mutates it exactly like the exact oracle would:
        re-stamping (:func:`linearize_effects`) and the Definition 5
        extension — both idempotent — unless ``pre_extended`` says the
        caller already ran them globally.
    commutativity:
        Registry used for the straggler conflict screen *and* by the
        escalation engine.  Pass a private copy when another analysis
        shares the source registry concurrently.
    strict_cross_object:
        Oracle strictness for the protocol under test
        (:func:`repro.fuzz.oracle.strictness_for`).
    pre_extended:
        The caller linearized and extended the whole system up front (the
        offline :func:`certify_history` path); per-commit passes are
        skipped and virtual duplicates are expected to sit inside the
        trees they were attached to.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; certification
        counters are registered on it.
    """

    def __init__(
        self,
        system: TransactionSystem,
        commutativity: CommutativityRegistry,
        *,
        strict_cross_object: bool = True,
        pre_extended: bool = False,
        metrics=None,
    ):
        self.system = system
        self.commutativity = commutativity
        self.strict_cross_object = strict_cross_object
        self.pre_extended = pre_extended
        self.committed = 0
        self.actions = 0
        self.fast_commits = 0
        self.escalated_commits = 0
        self.stragglers_scanned = 0
        self.escalated = False
        self.escalation_reason: str | None = None
        #: flips at the first commit whose integration closes a cycle
        self.violated = False
        self.epochs = 0
        self.escalated_epochs = 0
        #: trees fed since the last seal (what the certifier still holds)
        self.live_transactions = 0
        self._engine: IncrementalDependencyEngine | None = None
        #: (txn, extras) in fed order — the escalation catch-up replay
        self._log: list[tuple[OOTransaction, tuple[ActionNode, ...]]] = []
        self._timelines: dict[ObjectId, _Timeline] = {}
        #: highest stamp fed so far / as of the last seal
        self._high_seq = 0
        self._sealed_seq = 0
        if metrics is not None:
            self._m_fast = metrics.counter(
                "certify_fast_commits_total",
                "commits certified on the fast path",
            )
            self._m_exact = metrics.counter(
                "certify_escalated_commits_total",
                "commits routed through the exact engine",
            )
            self._m_stragglers = metrics.counter(
                "certify_stragglers_scanned_total",
                "timeline entries scanned for straggler conflicts",
            )
            self._m_epochs = metrics.counter(
                "certify_epochs_total",
                "certification epochs that observed a commit",
            )
            self._m_live = metrics.gauge(
                "certify_live_transactions",
                "committed trees the certifier currently holds",
            )
            self._m_escalations = metrics.counter(
                "certify_escalations_total",
                "certification epochs that escalated to the exact engine, "
                "by the reason of their first escalation",
                labelnames=("reason",),
            )
        else:
            self._m_fast = self._m_exact = self._m_stragglers = None
            self._m_epochs = self._m_live = self._m_escalations = None

    # -- public API ----------------------------------------------------------

    @property
    def oo_serializable(self) -> bool:
        return not self.violated

    def observe_commit(self, txn: OOTransaction) -> bool:
        """Certify one more committed transaction.

        Returns True while the history so far is certified
        oo-serializable; the first False is final (violations are monotone
        — later commits cannot undo a closed cycle).
        """
        if self.violated:
            return False
        self._admit(txn)
        self.committed += 1
        self.system.adopt(txn)
        if self._engine is not None:
            return self._feed_engine(txn)
        extras: tuple[ActionNode, ...] = ()
        if not self.pre_extended:
            linearize_effects(self.system, tops=[txn])
            extras = tuple(extend_system(self.system, tops=[txn]).duplicates)
        self._log.append((txn, extras))
        # Virtual duplicates break the fast path's premise that every
        # same-tree pair is program-ordered (duplicates are appended to
        # their peer's children without precedence edges) — exact territory.
        reason = ESCALATE_EXTENSION if extras else self._screen(txn)
        if reason is None:
            self.fast_commits += 1
            if self._m_fast is not None:
                self._m_fast.value += 1
            return True
        self.escalate(reason)
        self.escalated_commits += 1
        if self._m_exact is not None:
            self._m_exact.value += 1
        return not self.violated

    def seal(self) -> None:
        """End the epoch: everything fed so far precedes everything to come.

        The caller promises a quiescent point — every tree it feeds from
        now on carries only stamps above every stamp fed so far (the
        service calls this between executor batches, when nothing is in
        flight and the shared stamp clock only moves forward).  Under that
        promise no cycle can span the seal (module docstring), so the
        exact engine, the catch-up log, the timelines, the trees held in
        ``system`` and the virtual objects declared for them are dropped
        and the next commit starts on the fast path.  :meth:`observe_commit`
        enforces the promise stamp by stamp.

        ``system`` must be private to the certifier (:func:`certified_base`):
        its TOP set is emptied.  A violation is final, so sealing a
        violated certifier is a no-op — nothing is certified after it and
        the engine that found the cycle stays inspectable.
        """
        if self.violated:
            return
        self._engine = None
        self._log.clear()
        self._timelines.clear()
        self.system.retire_tops()
        self._sealed_seq = self._high_seq
        self.live_transactions = 0
        if self._m_live is not None:
            self._m_live.value = 0

    def escalate(self, reason: str) -> None:
        """Switch to the exact engine, replaying the epoch's fed trees.

        Sticky until the next :meth:`seal`.

        Public so callers that *know* the fast path cannot apply — e.g.
        the offline path when the global extension produced duplicates —
        can route everything through the engine from the start.
        """
        if self._engine is not None:
            return
        self.escalated = True
        self.escalation_reason = reason
        self.escalated_epochs += 1
        if self._m_escalations is not None:
            self._m_escalations.labels(reason=reason).value += 1
        engine = IncrementalDependencyEngine(
            self.system,
            self.commutativity,
            propagate_cross_object=self.strict_cross_object,
            track_cycles=True,
            linearize=not self.pre_extended,
            extend=not self.pre_extended,
        )
        self._engine = engine
        for txn, extras in self._log:
            if engine.violated:
                break
            # Logged trees are already re-stamped and extended; hand the
            # recorded duplicates over instead of re-deriving them.
            engine.append_transaction(txn, extras=extras)
        self._log.clear()
        self.violated = engine.violated

    def report(self, *, gave_up: int = 0) -> CertificationReport:
        return CertificationReport(
            ok=not self.violated,
            committed=self.committed,
            actions=self.actions,
            fast_commits=self.fast_commits,
            escalated_commits=self.escalated_commits,
            stragglers_scanned=self.stragglers_scanned,
            escalated=self.escalated,
            escalation_reason=self.escalation_reason,
            gave_up=gave_up,
            epochs=self.epochs,
            escalated_epochs=self.escalated_epochs,
        )

    def _admit(self, txn: OOTransaction) -> None:
        """Hold ``txn`` to the last seal's promise, then count it in.

        Every stamp of the tree must exceed the sealed high-water mark —
        the precondition of the retire rule.  A tree that breaks it is
        refused before anything is mutated: an error, never a verdict.
        The same walk counts the tree's real actions (not virtual, not the
        system root), whichever path later certifies it.
        """
        sealed = self._sealed_seq
        high = self._high_seq
        actions = 0
        for action in txn.actions():
            seq = action.seq
            if seq <= sealed:
                raise ScheduleError(
                    f"{txn.label}: {action.label} is stamped {seq}, at or "
                    f"below the sealed high-water mark {sealed}; the seal "
                    "was premature (the history was not quiescent)"
                )
            if seq > high:
                high = seq
            if action.obj != SYSTEM_OBJECT and not action.virtual:
                actions += 1
        self._high_seq = high
        self.actions += actions
        if self.live_transactions == 0:
            self.epochs += 1
            if self._m_epochs is not None:
                self._m_epochs.value += 1
        self.live_transactions += 1
        if self._m_live is not None:
            self._m_live.value += 1

    # -- the fast path --------------------------------------------------------

    def _screen(self, txn: OOTransaction) -> str | None:
        """One tree walk deciding fast acceptance; a reason string escalates.

        The walk checks, in order: (a) every sibling group is totally
        program-ordered, (b) per object, the tree's own stamps appear in
        call (DFS) order, (c) per object, the tree's stamps land after
        everything already certified — or, for stragglers, inside a short
        window free of conflicting actions from other transactions.
        """
        groups: dict[ObjectId, list[ActionNode]] = {}
        last_seq: dict[ObjectId, int] = {}
        for action in txn.actions():
            children = action.children
            if children:
                real = [c for c in children if not c.virtual]
                for i in range(len(real) - 1):
                    if not real[i].precedes_sibling(real[i + 1]):
                        return ESCALATE_UNORDERED_SIBLINGS
            obj = action.obj
            if obj == SYSTEM_OBJECT:
                continue
            if not self.pre_extended and (action.virtual or is_virtual(obj)):
                # Another analysis (the optimistic protocol's certifier
                # extends committed trees during validation) moved an
                # offender onto a virtual object; its duplicate peers hang
                # off *earlier* trees the timelines never saw.  Exact
                # territory.  (Offline, the up-front global extension
                # pre-escalated any history with duplicates, and a moved
                # offender without peers is a singleton timeline — safe.)
                return ESCALATE_EXTENSION
            if action.virtual:
                continue
            prev = last_seq.get(obj)
            if prev is not None and action.seq < prev:
                return ESCALATE_NONMONOTONE
            last_seq[obj] = action.seq
            groups.setdefault(obj, []).append(action)

        in_conflict = self.commutativity.in_conflict
        for obj, group in groups.items():
            group.sort(key=lambda a: (a.seq, a.aid))
            timeline = self._timelines.get(obj)
            if timeline is None:
                timeline = self._timelines[obj] = _Timeline()
            seqs, certified = timeline.seqs, timeline.actions
            for action in group:
                if not seqs or action.seq > seqs[-1]:
                    seqs.append(action.seq)
                    certified.append(action)
                    continue
                # Straggler: the stamp lands inside the certified timeline.
                # Only actions stamped *after* it can receive a backward
                # Axiom 1 edge, so scanning the suffix window suffices
                # (bisect_left keeps equal stamps inside the window: a tie
                # with a conflicting action is order-ambiguous → exact).
                idx = bisect_left(seqs, action.seq)
                window = certified[idx:]
                if len(window) > STRAGGLER_SCAN_LIMIT:
                    return ESCALATE_WINDOW
                self.stragglers_scanned += len(window)
                if self._m_stragglers is not None:
                    self._m_stragglers.value += len(window)
                for other in window:
                    if other.top is action.top:
                        continue  # same-tree pairs are program-ordered here
                    if not (action.is_primitive or other.is_primitive):
                        continue  # Axiom 1 needs a primitive member
                    if in_conflict(action, other):
                        return ESCALATE_CONFLICT
                seqs.insert(idx, action.seq)
                certified.insert(idx, action)
        return None

    # -- the exact path -------------------------------------------------------

    def _feed_engine(self, txn: OOTransaction) -> bool:
        engine = self._engine
        assert engine is not None
        self.escalated_commits += 1
        if self._m_exact is not None:
            self._m_exact.value += 1
        if not engine.violated:
            if self.pre_extended:
                engine.append_transaction(txn, extras=())
            else:
                linearize_effects(self.system, tops=[txn])
                extras = list(extend_system(self.system, tops=[txn]).duplicates)
                extras.extend(self._foreign_duplicates(txn))
                engine.append_transaction(txn, extras=tuple(extras))
        self.violated = engine.violated
        return not self.violated

    def _foreign_duplicates(self, txn: OOTransaction) -> list[ActionNode]:
        """Duplicates another analysis attached for this tree's offenders.

        If an external certifier already extended ``txn`` (optimistic
        validation), our own extension pass is an idempotent no-op and the
        virtual duplicates it created hang off earlier trees.  A virtual
        object's action set is fixed at break time — the offender plus a
        snapshot of its peers — so sweeping the virtual objects mentioned
        by this tree recovers exactly the duplicates the engine must
        integrate alongside it (already-seen ones are deduplicated there).
        """
        swept: list[ActionNode] = []
        seen_objects: set[ObjectId] = set()
        for action in txn.actions():
            obj = action.obj
            if action.virtual or not is_virtual(obj) or obj in seen_objects:
                continue
            seen_objects.add(obj)
            swept.extend(
                other
                for other in self.system.actions_on(obj)
                if other.virtual
            )
        return swept


def certified_base(source: TransactionSystem) -> TransactionSystem:
    """An empty system sharing ``source``'s stamp clock and object universe.

    The online service feeds committed trees into a certifier-private
    system so the certifier's top list is exactly the commit order, while
    stamps and declared objects stay those of the live database.
    """
    base = TransactionSystem()
    base._seq_counter = source._seq_counter
    for oid in sorted(source._declared_objects):
        base.declare_object(oid)
    return base


def _committed_in_commit_order(result: "ExecutionResult", projection):
    """The projection's trees sorted by (commit tick, label)."""
    ticks = {
        o.final_ctx.txn_id: o.final_ctx.stats.commit_tick
        for o in result.outcomes
        if o.committed and o.final_ctx is not None
    }
    return sorted(
        projection._tops,
        key=lambda txn: (ticks.get(txn.label, 0), txn.label),
    )


def certify_history(
    result: "ExecutionResult",
    ablation: "Ablation | None" = None,
    *,
    strict_cross_object: bool = True,
    with_oracle: bool = True,
) -> CertificationReport:
    """Certify one run's committed history, cheaply when possible.

    Performs the exact oracle's tree mutations — committed projection,
    global re-stamping, global Definition 5 extension — then feeds the
    committed trees through an :class:`OnlineCertifier` in commit order.
    The verdict equals :func:`repro.fuzz.oracle.check_history`'s
    ``oo_serializable`` bit; on violation (with ``with_oracle``) the
    canonical report, witnesses included, is attached as ``.oracle`` so
    shrinker and replay tooling see the exact engine's bytes.
    """
    from repro.oodb.trace import committed_history

    projection, registry = committed_history(
        result.db, result.committed_labels, ablation
    )
    linearize_effects(projection)
    extension = extend_system(projection)
    certifier = OnlineCertifier(
        projection,
        registry,
        strict_cross_object=strict_cross_object,
        pre_extended=True,
    )
    if extension.duplicates:
        certifier.escalate(ESCALATE_EXTENSION)
    for txn in _committed_in_commit_order(result, projection):
        if not certifier.observe_commit(txn):
            break
    report = certifier.report(gave_up=len(result.gave_up))
    if report.violation and with_oracle:
        from repro.fuzz.oracle import check_history

        report.oracle = check_history(
            result, ablation, strict_cross_object=strict_cross_object
        )
    return report
