"""The certifier's cached-prefix validation matches from-scratch validation.

:class:`OptimisticCertifier` validates each commit by extending a cached
analysis of the committed prefix.  The reference here re-analyzes
committed ∪ {candidate} from empty with the batch fixpoint of
:mod:`tests.reference_analysis`.  Both must make identical accept/abort
decisions on identical executions — same committed sets, same
validation/failure counts, same final oracle report — including runs where
validation failures trigger restarts (which is exactly where a stale or
badly invalidated cache would diverge).
"""

import pytest

from repro.errors import ReproError
from repro.fuzz.driver import run_cell
from repro.fuzz.generator import generate
from repro.locking import OptimisticCertifier
from repro.oodb.trace import committed_projection
from tests.reference_analysis import reference_analyze_system


def _validate_from_scratch(self, ctx) -> bool:
    """Re-analyze committed ∪ {candidate} from scratch."""
    labels = set(self._committed) | {ctx.txn_id}
    projection = committed_projection(self.db.system, labels)
    verdict, _ = reference_analyze_system(
        projection, self.db.commutativity_registry()
    )
    return verdict.oo_serializable


def _run(spec):
    result, report = run_cell(spec, "optimistic-oo")
    stats = result.db.scheduler.stats
    return (
        sorted(result.committed_labels),
        stats["validations"],
        stats["validation_failures"],
        report.oo_serializable,
        report.oo_constraints,
        report.conventional_constraints,
        report.description,
    )


@pytest.mark.parametrize("seed", range(12))
def test_certifier_decisions_match_batch(seed, monkeypatch):
    spec = generate(seed)
    with monkeypatch.context() as patch:
        patch.setattr(OptimisticCertifier, "_validate", _validate_from_scratch)
        try:
            batch = _run(spec)
        except ReproError:
            pytest.skip("spec not runnable under the certifier")
    incremental = _run(spec)
    assert batch == incremental


def test_some_seed_exercises_validation_failures():
    """Guard against the suite silently losing its interesting cases: at
    least one of the seeds above must produce validation failures (commit-
    time aborts), so the cache-invalidation path is actually covered."""
    failures = 0
    for seed in range(12):
        spec = generate(seed)
        try:
            result, _ = run_cell(spec, "optimistic-oo")
        except ReproError:
            continue
        failures += result.db.scheduler.stats["validation_failures"]
    assert failures > 0
