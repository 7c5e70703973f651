"""Static partitioning of the object space across shards.

The sharded runtime routes every top-level send by a static OID → shard
map.  The map is *call-closed*: nested method calls (the ``["call", ...]``
ops in generated method plans) never cross a shard boundary, because a
shard only materializes the objects it owns.  :func:`call_components`
therefore unions objects connected by any call edge and
:meth:`ShardMap.plan` hashes whole components onto shards (round-robin in
first-appearance order — deterministic and balanced, unlike a raw
name-hash which can collapse a handful of components onto one shard).

Transactions still span shards: :func:`split_ops` cuts each transaction's
top-level sends into one *branch* per target shard.  A transaction
with branches on two or more shards must two-phase commit through the
coordinator (``repro.shard.coordinator``); a single-branch transaction
commits locally (the 1PC fast path), which is what makes a 1-shard run
behave — byte for byte — like the single-core executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fuzz.generator import WorkloadSpec


def call_components(spec: WorkloadSpec) -> list[list[str]]:
    """Connected components of the object call graph, deterministically.

    Components are ordered by first appearance in ``spec.objects``; the
    members of each keep spec order.  Objects that never call and are
    never called form singleton components.
    """
    order = [o.name for o in spec.objects]
    parent: dict[str, str] = {name: name for name in order}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:
            parent[name], name = root, parent[name]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for ospec in spec.objects:
        for plan in ospec.methods:
            for op in plan.plan:
                if op[0] == "call" and op[1] in parent:
                    union(ospec.name, op[1])

    members: dict[str, list[str]] = {}
    roots_in_order: list[str] = []
    for name in order:
        root = find(name)
        if root not in members:
            members[root] = []
            roots_in_order.append(root)
        members[root].append(name)
    return [members[root] for root in roots_in_order]


@dataclass
class ShardMap:
    """The static OID → shard routing table."""

    n_shards: int
    assignment: dict[str, int] = field(default_factory=dict)

    def shard_of(self, oid: str) -> int:
        return self.assignment[oid]

    def owned(self, shard: int, spec: WorkloadSpec) -> list:
        """The object specs shard ``shard`` materializes, in spec order."""
        return [o for o in spec.objects if self.assignment[o.name] == shard]

    @staticmethod
    def plan(spec: WorkloadSpec, n_shards: int) -> "ShardMap":
        """Partition the spec's call components round-robin over shards."""
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        assignment: dict[str, int] = {}
        for i, component in enumerate(call_components(spec)):
            shard = i % n_shards
            for name in component:
                assignment[name] = shard
        return ShardMap(n_shards=n_shards, assignment=assignment)

    def to_dict(self) -> dict:
        return {"n_shards": self.n_shards, "assignment": dict(self.assignment)}

    @staticmethod
    def from_dict(data: dict) -> "ShardMap":
        return ShardMap(
            n_shards=int(data["n_shards"]),
            assignment={k: int(v) for k, v in data["assignment"].items()},
        )


def split_ops(ops: list, shard_map: ShardMap) -> dict[int, list]:
    """Cut one op list into per-shard sublists, preserving per-shard order.

    ``work`` (think time) ops ride with the preceding send's shard; leading
    think time rides with the first send.  An op list with no sends at all
    lands on shard 0 — a think-only transaction touches no data anywhere.
    """
    per_shard: dict[int, list] = {}
    pending: list = []
    current: int | None = None
    for op in ops:
        if op[0] == "send":
            current = shard_map.shard_of(op[1])
            bucket = per_shard.setdefault(current, [])
            if pending:
                bucket.extend(pending)
                pending = []
            bucket.append(list(op))
        else:
            if current is None:
                pending.append(list(op))
            else:
                per_shard[current].append(list(op))
    if pending and not per_shard:
        per_shard[0] = pending
    return per_shard
