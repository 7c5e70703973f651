"""The pure-index workload: keyed operations directly on the B+ tree.

This isolates the paper's page-size argument (Example 1): "Every node and
therefore the corresponding page contains many keys (roughly up to 500).
Operations on these keys will often conflict at the page level but commute
at the node level."  With one transaction touching a handful of random
keys, the probability that two transactions share an index *page* grows
with keys-per-page, while the probability that they touch the same *key*
does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.oodb.database import ObjectDatabase
from repro.runtime.program import TransactionProgram
from repro.structures.bptree import build_bptree
from repro.workloads.keys import ZipfSampler, key_name


def index_layers() -> dict[str, int]:
    return {"BpTree": 2, "TreeNode": 1, "TreeLeaf": 1, "Page": 0}


@dataclass
class IndexWorkload:
    """Parameters of one pure-index experiment."""

    n_transactions: int = 10
    ops_per_transaction: int = 4
    #: fraction of operations that are fresh-key inserts
    p_insert: float = 0.3
    #: fraction of operations that overwrite an *existing* key (semantic
    #: same-key conflicts, which survive under oo-serializability)
    p_update: float = 0.0
    preload: int = 60
    key_space: int = 300
    zipf_theta: float = 0.5
    keys_per_page: int = 16
    blink: bool = False
    think_ticks: int = 1
    seed: int = 0


def build_index_workload(
    db: ObjectDatabase, spec: IndexWorkload
) -> tuple[str, list[TransactionProgram]]:
    """Bootstrap the tree and generate the keyed programs."""
    tree = build_bptree(db, spec.keys_per_page, blink=spec.blink)
    ctx = db.begin("preload")
    for index in range(spec.preload):
        db.send(ctx, tree, "insert", key_name(index), index)
    db.commit(ctx)

    rng = random.Random(spec.seed)
    sampler = ZipfSampler(spec.key_space, theta=spec.zipf_theta, seed=spec.seed + 1)
    programs: list[TransactionProgram] = []
    for t in range(spec.n_transactions):
        ops: list[tuple] = []
        for step in range(spec.ops_per_transaction):
            point = rng.random()
            if point < spec.p_insert:
                # a fresh key at a random position in the key space, so
                # concurrent inserts spread over leaves (and pages)
                anchor = rng.randrange(spec.key_space)
                ops.append(("insert", f"{key_name(anchor)}.{t}.{step}", t))
            elif point < spec.p_insert + spec.p_update and spec.preload:
                ops.append(("insert", key_name(rng.randrange(spec.preload)), t))
            else:
                ops.append(("search", sampler.sample()))

        def body(api, ops=tuple(ops)):
            for operation in ops:
                if operation[0] == "insert":
                    api.send(tree, "insert", operation[1], operation[2])
                else:
                    api.send(tree, "search", operation[1])
                if spec.think_ticks:
                    api.work(spec.think_ticks)

        programs.append(TransactionProgram(f"X{t}", body, kind="index"))
    return tree, programs
