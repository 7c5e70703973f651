"""Unit and adversarial tests for the Vbox-style black-box certifier.

The adversarial half mutates executed histories *after* the fact —
swapping effect stamps so the committed order and the object schedules
disagree — and demands two things of the certifier: it must never take
the fast path past a suspicious stamp (escalation), and whatever path it
takes must reach exactly the exact engine's verdict (parity).
"""

import random

import pytest

from repro.core.certify import (
    ESCALATE_CONFLICT,
    ESCALATE_EXTENSION,
    ESCALATE_NONMONOTONE,
    ESCALATE_UNORDERED_SIBLINGS,
    ESCALATE_WINDOW,
    STRAGGLER_SCAN_LIMIT,
    CertificationReport,
    OnlineCertifier,
    certified_base,
    certify_history,
)
from repro.core.commutativity import CommutativityRegistry
from repro.core.transactions import TransactionSystem
from repro.errors import ScheduleError
from repro.fuzz.driver import execute_cell
from repro.fuzz.generator import GeneratorProfile, generate
from repro.fuzz.oracle import check_history, strictness_for
from repro.obs.metrics import MetricsRegistry


def _fast_report(ok: bool = True) -> CertificationReport:
    return CertificationReport(
        ok=ok,
        committed=7,
        actions=120,
        fast_commits=7 if ok else 5,
        escalated_commits=0 if ok else 2,
        stragglers_scanned=3,
        escalated=not ok,
        escalation_reason=None if ok else ESCALATE_CONFLICT,
    )


class TestReport:
    def test_fast_acceptance_description(self):
        report = _fast_report()
        assert report.oo_serializable and not report.violation
        assert "certified oo-serializable" in report.description
        assert "fast path" in report.description

    def test_escalated_description_names_the_reason(self):
        report = _fast_report(ok=False)
        assert report.violation
        assert ESCALATE_CONFLICT in report.description
        assert "NOT oo-serializable" in report.description

    def test_as_oracle_report_mirrors_the_verdict(self):
        for ok in (True, False):
            oracle = _fast_report(ok=ok).as_oracle_report()
            assert oracle.oo_serializable is ok
            assert oracle.conventional_serializable is ok
            assert oracle.committed == 7
            assert oracle.oo_constraints == 0


def _committed_primitive_groups(result):
    """Non-virtual primitive actions of committed trees, grouped by object."""
    committed = result.committed_labels
    groups: dict = {}
    for txn in result.db.system.tops:
        if txn.label not in committed:
            continue
        for action in txn.actions():
            if action.is_primitive and not action.virtual:
                groups.setdefault(action.obj, []).append(action)
    return groups


def _long_cell(seed: int = 0, protocol: str = "page-2pl"):
    return execute_cell(generate(seed, GeneratorProfile.long(40)), protocol)


def _parity(result, protocol) -> CertificationReport:
    """Certify, then cross-check verdict and witness against the oracle."""
    strict = strictness_for(protocol)
    report = certify_history(result, strict_cross_object=strict)
    exact = check_history(result, strict_cross_object=strict)
    assert report.oo_serializable == exact.oo_serializable
    if report.violation:
        assert report.description == exact.description
        assert report.as_oracle_report().description == exact.description
    return report


class TestFastPath:
    def test_long_conflict_sparse_history_certifies_all_fast(self):
        result = _long_cell()
        report = certify_history(
            result, strict_cross_object=strictness_for("page-2pl")
        )
        assert report.ok and not report.escalated
        assert report.committed > 0
        assert report.fast_commits == report.committed
        assert report.escalated_commits == 0
        # one fuzz run is one epoch: all of its trees overlap
        assert (report.epochs, report.escalated_epochs) == (1, 0)

    def test_judge_history_agrees_with_oracle(self):
        for protocol in ("page-2pl", "open-nested-oo"):
            result = execute_cell(
                generate(2, GeneratorProfile.smoke()), protocol
            )
            strict = strictness_for(protocol)
            assert certify_history(
                result, strict_cross_object=strict, with_oracle=False
            ).violation == check_history(
                result, strict_cross_object=strict
            ).violation


class TestAdversarialMutations:
    def test_swapped_cross_top_conflicting_stamps_escalate(self):
        # In an all-fast history every conflicting cross-transaction pair's
        # stamp order matches commit order; swapping one such pair plants a
        # backward conflicting straggler the screen must refuse to certify.
        protocol = "page-2pl"
        result = _long_cell(protocol=protocol)
        registry = result.db.commutativity_registry()
        pair = None
        for _, actions in sorted(_committed_primitive_groups(result).items()):
            actions.sort(key=lambda a: a.seq)
            pair = next(
                (
                    (a, b)
                    for i, a in enumerate(actions)
                    for b in actions[i + 1 :]
                    if a.top is not b.top and registry.in_conflict(a, b)
                ),
                None,
            )
            if pair is not None:
                break
        assert pair is not None, "workload has no conflicting cross-top pair"
        a, b = pair
        a.seq, b.seq = b.seq, a.seq
        report = _parity(result, protocol)
        assert report.escalated
        assert report.escalation_reason in (
            ESCALATE_CONFLICT,
            ESCALATE_WINDOW,
            ESCALATE_NONMONOTONE,
        )

    def test_nonmonotone_stamps_inside_one_tree_escalate(self):
        protocol = "page-2pl"
        result = _long_cell(seed=1, protocol=protocol)
        mutated = False
        for txn in result.db.system.tops:
            if txn.label not in result.committed_labels:
                continue
            per_obj: dict = {}
            for action in txn.actions():
                if action.is_primitive and not action.virtual:
                    per_obj.setdefault(action.obj, []).append(action)
            pair = next(
                (acts[:2] for acts in per_obj.values() if len(acts) >= 2
                 and acts[0].seq != acts[1].seq),
                None,
            )
            if pair is not None:
                first, second = pair  # DFS order
                hi, lo = max(first.seq, second.seq), min(first.seq, second.seq)
                first.seq, second.seq = hi, lo
                mutated = True
                break
        assert mutated, "no tree touches one object twice"
        report = _parity(result, protocol)
        assert report.escalated

    @pytest.mark.parametrize("protocol", ["page-2pl", "open-nested-oo"])
    def test_random_stamp_swaps_never_diverge(self, protocol):
        # Whatever a mutation does — escalate, violate, or stay benign —
        # the certifier's verdict must equal the exact engine's, and any
        # witness must be byte-identical.
        rng = random.Random(0xC14)
        for seed in (0, 3):
            result = execute_cell(
                generate(seed, GeneratorProfile.smoke()), protocol
            )
            pool = [
                actions
                for actions in _committed_primitive_groups(result).values()
                if len(actions) >= 2
            ]
            for actions in pool[:2]:
                a, b = rng.sample(actions, 2)
                a.seq, b.seq = b.seq, a.seq
            _parity(result, protocol)


def _online(source: TransactionSystem) -> OnlineCertifier:
    """A certifier fed from ``source`` the way the service feeds its own."""
    return OnlineCertifier(certified_base(source), CommutativityRegistry())


def _call_cycle(source: TransactionSystem, label: str):
    """A tree whose ``O.a`` reaches ``O.c`` through ``P`` (Definition 5)."""
    txn = source.transaction(label)
    txn.call("O", "a").call("P", "b").call("O", "c")
    return txn


def _cross_cycle(source: TransactionSystem):
    """T1 and T2 meet on X and Y in opposite orders: not oo-serializable."""
    t1, t2 = source.transaction("T1"), source.transaction("T2")
    x1, y2 = t1.call("X", "write"), t2.call("Y", "write")
    y1, x2 = t1.call("Y", "write"), t2.call("X", "write")
    source.order_primitives([x1, y2, y1, x2])
    return t1, t2


class TestSeal:
    def test_seal_drops_the_epoch_and_restarts_on_the_fast_path(self):
        source = TransactionSystem()
        certifier = _online(source)
        assert certifier.observe_commit(_call_cycle(source, "T1"))
        assert certifier.escalation_reason == ESCALATE_EXTENSION
        assert certifier.live_transactions == 1
        certifier.seal()
        assert certifier._engine is None
        assert certifier._log == [] and certifier._timelines == {}
        assert certifier.system.tops == []
        assert certifier.live_transactions == 0
        plain = source.transaction("T2")
        plain.call("O", "a")
        assert certifier.observe_commit(plain)
        report = certifier.report()
        assert (report.epochs, report.escalated_epochs) == (2, 1)
        assert (report.fast_commits, report.escalated_commits) == (1, 1)
        # cumulative: some epoch escalated, for this most recent reason
        assert report.escalated and report.committed == 2
        assert report.escalation_reason == ESCALATE_EXTENSION

    def test_virtual_names_start_over_after_a_seal(self):
        # Unsealed, every offender on O walks one name further (O′, O′′, …);
        # a seal retires the names with the trees that carried them.
        def offender_homes(certifier, source, seal: bool) -> list:
            trees = [_call_cycle(source, "T1"), _call_cycle(source, "T2")]
            for txn in trees:
                certifier.observe_commit(txn)
                if seal:
                    certifier.seal()
            return [
                a.obj
                for t in trees
                for a in t.actions()
                if a.method == "c" and not a.virtual
            ]

        source = TransactionSystem()
        assert offender_homes(_online(source), source, seal=True) == ["O′", "O′"]
        source = TransactionSystem()
        assert offender_homes(_online(source), source, seal=False) == ["O′", "O′′"]

    def test_premature_seal_is_refused(self):
        # The leak the check exists for: T1 and T2 overlap and close a
        # cycle; drop T1 between them, and T2 alone would look fine.
        source = TransactionSystem()
        certifier = _online(source)
        t1, t2 = _cross_cycle(source)
        assert certifier.observe_commit(t1)
        certifier.seal()
        with pytest.raises(ScheduleError, match="premature"):
            certifier.observe_commit(t2)
        # refused before anything moved: an error is not a verdict
        assert certifier.oo_serializable
        assert certifier.committed == 1 and certifier.live_transactions == 0

    def test_a_violation_is_final_across_seals(self):
        source = TransactionSystem()
        certifier = _online(source)
        t1, t2 = _cross_cycle(source)
        assert certifier.observe_commit(t1)
        assert not certifier.observe_commit(t2)
        certifier.seal()  # a no-op: the engine that found the cycle stays
        assert certifier._engine is not None and certifier.violated
        assert certifier.live_transactions == 2
        assert not certifier.observe_commit(source.transaction("T3"))
        assert certifier.report().violation


def _metered(source: TransactionSystem):
    metrics = MetricsRegistry()
    certifier = OnlineCertifier(
        certified_base(source), CommutativityRegistry(), metrics=metrics
    )
    return certifier, metrics


def _stamp_ordered(source: TransactionSystem, label: str, *primitives):
    """A tree of primitive calls ``(obj, method)``, in program order."""
    txn = source.transaction(label)
    return txn, [txn.call(obj, method) for obj, method in primitives]


class TestActionCount:
    """``report.actions`` counts every real action of every observed tree,
    whichever path certified it (virtual duplicates and roots excluded)."""

    def test_extension_escalated_epoch(self):
        source = TransactionSystem()
        certifier = _online(source)
        assert certifier.observe_commit(_call_cycle(source, "T1"))  # 3
        assert certifier.escalation_reason == ESCALATE_EXTENSION
        plain, _ = _stamp_ordered(source, "T2", ("X", "w"), ("Y", "w"))  # 2
        assert certifier.observe_commit(plain)
        assert certifier.report().actions == 5

    def test_straggler_escalated_epoch(self):
        source = TransactionSystem()
        certifier = _online(source)
        early, _ = _stamp_ordered(source, "T1", ("X", "w"), ("Y", "w"))
        late, _ = _stamp_ordered(source, "T2", ("Z", "w"), ("X", "w"))
        assert certifier.observe_commit(late)
        assert certifier.observe_commit(early)  # straggles into X: exact
        assert certifier.escalation_reason == ESCALATE_CONFLICT
        more, _ = _stamp_ordered(source, "T3", ("Y", "w"))
        assert certifier.observe_commit(more)
        assert certifier.report().actions == 5

    def test_screen_refusing_mid_walk(self):
        # The sibling check refuses at the root, before the walk reaches
        # any action: the whole tree still counts.
        source = TransactionSystem()
        certifier = _online(source)
        txn = source.transaction("T1")
        txn.call("X", "w").call("Y", "r")
        txn.call("Z", "w", parallel=True)
        assert certifier.observe_commit(txn)
        assert certifier.escalation_reason == ESCALATE_UNORDERED_SIBLINGS
        assert certifier.report().actions == 3

    def test_offline_certification_counts_the_history(self):
        result = _long_cell(seed=1)
        report = certify_history(result, strict_cross_object=True)
        real = sum(
            1
            for txn in result.db.system.tops
            if txn.label in result.committed_labels
            for action in txn.actions()
            if action.parent is not None and not action.virtual
        )
        assert report.actions == real > 0


class TestEscalationMetric:
    """``certify_escalations_total{reason=…}``: one count per escalated
    epoch, under the reason of its first escalation."""

    def _counts(self, metrics) -> dict:
        family = metrics.get("certify_escalations_total")
        return {
            labels["reason"]: value
            for _, labels, value in family.samples()
            if value
        }

    def test_extension(self):
        source = TransactionSystem()
        certifier, metrics = _metered(source)
        certifier.observe_commit(_call_cycle(source, "T1"))
        assert self._counts(metrics) == {ESCALATE_EXTENSION: 1}

    def test_unordered_siblings(self):
        source = TransactionSystem()
        certifier, metrics = _metered(source)
        txn = source.transaction("T1")
        txn.call("X", "w")
        txn.call("Y", "w", parallel=True)
        certifier.observe_commit(txn)
        assert self._counts(metrics) == {ESCALATE_UNORDERED_SIBLINGS: 1}

    def test_nonmonotone_seq(self):
        source = TransactionSystem()
        certifier, metrics = _metered(source)
        txn, (first, second) = _stamp_ordered(
            source, "T1", ("X", "a"), ("X", "b")
        )
        source.order_primitives([second, first])
        certifier.observe_commit(txn)
        assert self._counts(metrics) == {ESCALATE_NONMONOTONE: 1}

    def test_straggler_window(self):
        source = TransactionSystem()
        certifier, metrics = _metered(source)
        early, _ = _stamp_ordered(source, "T1", ("X", "r"))
        wide, _ = _stamp_ordered(
            source, "T2", *[("X", "r")] * (STRAGGLER_SCAN_LIMIT + 1)
        )
        certifier.observe_commit(wide)
        certifier.observe_commit(early)
        assert self._counts(metrics) == {ESCALATE_WINDOW: 1}

    def test_conflicting_straggler(self):
        source = TransactionSystem()
        certifier, metrics = _metered(source)
        early, _ = _stamp_ordered(source, "T1", ("X", "w"))
        late, _ = _stamp_ordered(source, "T2", ("X", "w"))
        certifier.observe_commit(late)
        certifier.observe_commit(early)
        assert self._counts(metrics) == {ESCALATE_CONFLICT: 1}

    def test_once_per_escalated_epoch(self):
        source = TransactionSystem()
        certifier, metrics = _metered(source)
        for label in ("T1", "T2"):  # one epoch, escalated once
            certifier.observe_commit(_call_cycle(source, label))
        certifier.seal()
        certifier.observe_commit(_call_cycle(source, "T3"))
        certifier.seal()
        plain, _ = _stamp_ordered(source, "T4", ("X", "w"))
        certifier.observe_commit(plain)  # a fast epoch counts nothing
        assert self._counts(metrics) == {ESCALATE_EXTENSION: 2}
        assert certifier.report().escalated_epochs == 2
