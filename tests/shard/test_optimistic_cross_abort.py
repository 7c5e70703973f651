"""A validated branch that the coordinator aborts leaves the judge.

An ``optimistic-oo`` branch of a cross-shard transaction validates when it
votes (``scheduler.prepare``) and then parks for the coordinator.  Other
candidates validate meanwhile; if the coordinator then aborts the branch,
its tree must come out of the shard's judge, which afterwards holds
exactly the epoch's committed trees and the validated candidates still in
flight — never a tree that will not commit.
"""

from repro.catalog import generate, sharded_profile
from repro.fuzz.sharded import run_sharded_cell
from repro.locking import OptimisticCertifier

SEEDS = range(8)


def test_a_cross_aborted_branch_leaves_the_judge(monkeypatch):
    #: per scheduler: trees committed this epoch, validated trees in flight
    committed: dict[int, list] = {}
    validated: dict[int, list] = {}
    checked = [0]
    prepare, commit = OptimisticCertifier.prepare, OptimisticCertifier.commit
    abort, seal = OptimisticCertifier.abort, OptimisticCertifier.seal

    def held(scheduler) -> list:
        judge = scheduler._judge
        return [] if judge is None else judge.system.tops

    def expected(scheduler) -> list:
        key = id(scheduler)
        return committed.get(key, []) + validated.get(key, [])

    def tracked_prepare(scheduler, ctx):
        prepare(scheduler, ctx)
        if scheduler._judge is not None and ctx.txn in held(scheduler):
            validated.setdefault(id(scheduler), []).append(ctx.txn)

    def tracked_commit(scheduler, ctx):
        in_flight = validated.get(id(scheduler), [])
        if ctx.txn in in_flight:
            in_flight.remove(ctx.txn)
            committed.setdefault(id(scheduler), []).append(ctx.txn)
        commit(scheduler, ctx)

    def tracked_abort(scheduler, ctx):
        in_flight = validated.get(id(scheduler), [])
        was_validated = ctx.txn in in_flight
        if was_validated:
            in_flight.remove(ctx.txn)
        abort(scheduler, ctx)
        if was_validated:
            checked[0] += 1
            assert sorted(t.label for t in held(scheduler)) == sorted(
                t.label for t in expected(scheduler)
            ), ctx.txn_id

    def tracked_seal(scheduler):
        seal(scheduler)
        committed.pop(id(scheduler), None)
        validated.pop(id(scheduler), None)

    monkeypatch.setattr(OptimisticCertifier, "prepare", tracked_prepare)
    monkeypatch.setattr(OptimisticCertifier, "commit", tracked_commit)
    monkeypatch.setattr(OptimisticCertifier, "abort", tracked_abort)
    monkeypatch.setattr(OptimisticCertifier, "seal", tracked_seal)
    for seed in SEEDS:
        spec = generate(seed, sharded_profile(None, 2))
        run_sharded_cell(spec, "optimistic-oo", 2)
    assert checked[0] > 0  # some validated branch was cross-aborted
