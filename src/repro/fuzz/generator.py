"""Random workload generation for the schedule fuzzer.

From a single integer seed, :func:`generate` derives a complete, fully
declarative :class:`WorkloadSpec`:

- a layered **object graph** whose non-leaf methods call methods of
  lower-layer objects — plus, deliberately, two kinds of call cycles that
  exercise the Definition 5 extension: *self calls* (``X.m`` calls
  ``X.aux``) and *up calls* (``X.m`` calls ``Y.n`` which calls back into
  ``X.aux``, so ``X.aux`` runs with a call ancestor on its own object);
- per-object **commutativity matrices** over the generated method alphabet
  with entry kinds covering the edge cases cataloged by Malta & Martinez:
  unconditional commute/conflict, parameter-dependent (``diff-key``),
  deliberately **non-symmetric** directional entries (``lt-key``: ``m``
  right-commutes past ``m'`` only for ascending keys), and
  **state-dependent** entries (``state-low``: commute only while the
  object's running total is small — the escrow shape);
- **transaction programs**: sequences of message sends of varying target
  depth (a program may send to a root object *and* directly to a leaf the
  same root reaches indirectly), with think time in between.

Everything in the spec is JSON-serializable (:meth:`WorkloadSpec.to_dict` /
:meth:`WorkloadSpec.from_dict`), which is what makes shrunk counterexamples
one-command reproducible.  :func:`build_workload` materializes a spec
against a fresh :class:`~repro.oodb.database.ObjectDatabase` by synthesizing
one ``DatabaseObject`` subclass per object spec.

Semantics of generated methods are uniform so that compensations are always
definable: every update adds ``amount`` to a key-derived slot (and to the
object's running ``total``), and for every update method ``m`` a companion
``c_m`` exists that replays the plan with the sign flipped — ``c_m`` is the
registered open-nesting compensation of ``m`` (when the coin flip says so),
and inverse plans call the companions of their callees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.actions import Invocation
from repro.core.commutativity import CommutativitySpec
from repro.locking import make_scheduler
from repro.oodb.database import ObjectDatabase
from repro.oodb.method import dbmethod
from repro.oodb.object_model import DatabaseObject
from repro.runtime.program import TransactionProgram, program_from_ops

#: matrix entry kinds, in the order the generator draws them
ENTRY_KINDS = ("commute", "conflict", "diff-key", "lt-key", "state-low")


class FuzzCommutativity(CommutativitySpec):
    """A generated commutativity matrix with non-symmetric raw entries.

    Entries are keyed by *ordered* method-name pairs and evaluated
    directionally (the ``lt-key`` kind, for instance, depends on argument
    order), so the raw table is deliberately non-symmetric.  The evaluated
    relation, however, must honor the symmetric Definition 9 contract that
    every consumer of :meth:`CommutativitySpec.commutes` relies on — the
    lock table tests held-vs-requested while the analysis tests
    earlier-vs-later, and an orientation-dependent answer would let the
    scheduler and the oracle disagree about the same pair of invocations.
    ``commutes`` therefore takes the conjunction of both directional
    entries: a pair commutes only when *each* ordering of the two
    invocations passes its own entry.  Missing entries conflict (the safe
    default).
    """

    def __init__(self, entries: dict[tuple[str, str], str], threshold: int):
        self.entries = dict(entries)
        self.threshold = threshold

    def commutes(self, first: Invocation, second: Invocation) -> bool:
        return self._directional(first, second) and self._directional(
            second, first
        )

    def _directional(self, first: Invocation, second: Invocation) -> bool:
        kind = self.entries.get((first.method, second.method))
        if kind is None:
            return False
        return self._evaluate(kind, first, second)

    def _evaluate(self, kind: str, first: Invocation, second: Invocation) -> bool:
        if kind == "commute":
            return True
        if kind == "conflict":
            return False
        if kind == "diff-key":
            return bool(first.args and second.args and first.args[0] != second.args[0])
        if kind == "lt-key":
            return bool(first.args and second.args and first.args[0] < second.args[0])
        if kind == "state-low":
            states = [
                s for s in (first.state, second.state) if s is not None
            ]
            return bool(states) and all(abs(s) <= self.threshold for s in states)
        raise ValueError(f"unknown matrix entry kind {kind!r}")


class FuzzObjectBase(DatabaseObject):
    """Shared interpreter for generated method plans.

    Plan operations (all JSON lists):

    - ``["write", shift]`` — add ``sign*amount`` to slot ``s<(key+shift) %
      key_space>`` and to the running ``total`` (the state snapshot);
    - ``["read", shift]`` — read the shifted slot;
    - ``["call", target_oid, method, shift]`` — send ``method(key', amount)``
      to another object (or to self: the Definition 5 self-call case).
    """

    key_space: int = 6

    def state_snapshot(self) -> Any:
        page = self._db.store.get(self.page_id)
        return page.read("total", 0)

    def _slot(self, key: int, shift: int) -> str:
        return f"s{(key + shift) % type(self).key_space}"

    def _run_plan(self, plan: list, key: int, amount: int) -> int:
        observed = 0
        for op in plan:
            kind = op[0]
            if kind == "write":
                slot = self._slot(key, op[1])
                self.data[slot] = self.data.get(slot, 0) + amount
                self.data["total"] = self.data.get("total", 0) + amount
            elif kind == "read":
                observed += self.data.get(self._slot(key, op[1]), 0)
            elif kind == "call":
                _, target, method, shift = op
                # Companion bodies negate their own amount (``sign=-1`` in
                # ``_make_body``).  An inverse plan runs with an already
                # negated amount, so forward the *original* magnitude to a
                # companion or its negation would cancel out and the nested
                # compensation would re-apply the forward effect.
                sent = -amount if method.startswith("c_") else amount
                self.call(
                    target, method, (key + shift) % type(self).key_space, sent
                )
            else:  # pragma: no cover - specs are generator-produced
                raise ValueError(f"unknown plan op {op!r}")
        return observed


@dataclass
class MethodPlan:
    """One generated method: its plan and its nesting/compensation policy."""

    name: str
    plan: list
    update: bool
    #: register ``c_<name>`` as the open-nesting compensation of this method
    register_compensation: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "plan": self.plan,
            "update": self.update,
            "register_compensation": self.register_compensation,
        }

    @staticmethod
    def from_dict(data: dict) -> "MethodPlan":
        return MethodPlan(
            name=data["name"],
            plan=[list(op) for op in data["plan"]],
            update=data["update"],
            register_compensation=data["register_compensation"],
        )


@dataclass
class ObjectSpec:
    """One generated database object: layer, methods, commutativity matrix."""

    name: str
    layer: int
    methods: list[MethodPlan]
    #: ordered method-name pair -> entry kind (directional, see
    #: :class:`FuzzCommutativity`)
    matrix: dict[tuple[str, str], str]
    state_threshold: int = 8

    def method(self, name: str) -> MethodPlan:
        for plan in self.methods:
            if plan.name == name:
                return plan
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "methods": [m.to_dict() for m in self.methods],
            "matrix": {f"{a}|{b}": kind for (a, b), kind in sorted(self.matrix.items())},
            "state_threshold": self.state_threshold,
        }

    @staticmethod
    def from_dict(data: dict) -> "ObjectSpec":
        matrix = {}
        for pair, kind in data["matrix"].items():
            a, b = pair.split("|")
            matrix[(a, b)] = kind
        return ObjectSpec(
            name=data["name"],
            layer=data["layer"],
            methods=[MethodPlan.from_dict(m) for m in data["methods"]],
            matrix=matrix,
            state_threshold=data["state_threshold"],
        )


@dataclass
class ProgramSpec:
    """One generated transaction program: a list of top-level sends."""

    label: str
    #: ops: ``["send", oid, method, key, amount]`` or ``["work", ticks]``
    ops: list
    max_restarts: int = 20

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "ops": self.ops,
            "max_restarts": self.max_restarts,
        }

    @staticmethod
    def from_dict(data: dict) -> "ProgramSpec":
        return ProgramSpec(
            label=data["label"],
            ops=[list(op) for op in data["ops"]],
            max_restarts=data["max_restarts"],
        )


@dataclass
class WorkloadSpec:
    """A complete generated workload, reproducible from its seed."""

    seed: int
    key_space: int
    objects: list[ObjectSpec]
    programs: list[ProgramSpec]

    def object(self, name: str) -> ObjectSpec:
        for spec in self.objects:
            if spec.name == name:
                return spec
        raise KeyError(name)

    @property
    def leaf_objects(self) -> list[ObjectSpec]:
        return [o for o in self.objects if o.layer == 0]

    @property
    def page_capacity(self) -> int:
        """Default slots per page of a database hosting this workload."""
        return 4 * self.key_space + 16

    def layers(self) -> dict[str, int]:
        """The prefix -> level assignment the multilevel protocol needs.

        Generated objects are named ``L<layer>O<i>`` so the layer is a name
        prefix; pages sit at level 0, object layers are shifted up by one.
        """
        levels = {f"L{o.layer}": o.layer + 1 for o in self.objects}
        levels["Page"] = 0
        return levels

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "key_space": self.key_space,
            "objects": [o.to_dict() for o in self.objects],
            "programs": [p.to_dict() for p in self.programs],
        }

    @staticmethod
    def from_dict(data: dict) -> "WorkloadSpec":
        return WorkloadSpec(
            seed=data["seed"],
            key_space=data["key_space"],
            objects=[ObjectSpec.from_dict(o) for o in data["objects"]],
            programs=[ProgramSpec.from_dict(p) for p in data["programs"]],
        )


@dataclass
class GeneratorProfile:
    """Size and probability knobs of the generator (see EXPERIMENTS.md)."""

    n_objects: int = 7
    n_layers: int = 3
    updates_per_object: int = 2
    n_programs: int = 5
    ops_per_program: int = 4
    key_space: int = 6
    max_amount: int = 4
    max_think: int = 2
    #: probability that a non-leaf plan op is a call (vs an own-page access)
    p_call: float = 0.65
    #: probability of a Definition 5 self call in a non-leaf method
    p_self_call: float = 0.25
    #: probability of an up call (child calls back into a caller's object)
    p_up_call: float = 0.3
    #: probability that an update method registers its compensation
    p_compensation: float = 0.7
    #: weights over ENTRY_KINDS when drawing a matrix entry
    entry_weights: tuple = (0.3, 0.2, 0.25, 0.1, 0.15)
    state_threshold: int = 8
    #: independent object groups.  With ``groups > 1`` the object graph is
    #: generated per group (``n_objects`` each, named ``L<layer>G<g>O<i>``)
    #: and nested calls never leave a group — the unit the sharded runtime
    #: partitions by — while *programs* send across groups, producing the
    #: cross-shard transactions that exercise the 2PC/acyclicity path.
    #: ``groups == 1`` preserves the historical generator byte for byte.
    groups: int = 1
    #: probability that a send leaves the program's home group (groups > 1)
    p_cross_group: float = 0.35

    def grouped(self, groups: int, p_cross_group: float | None = None) -> "GeneratorProfile":
        """A copy of this profile split into ``groups`` object groups."""
        from dataclasses import replace

        kwargs = {"groups": groups}
        if p_cross_group is not None:
            kwargs["p_cross_group"] = p_cross_group
        return replace(self, **kwargs)

    @staticmethod
    def smoke() -> "GeneratorProfile":
        """Small and fast: the pytest / CI smoke configuration."""
        return GeneratorProfile(
            n_objects=5,
            n_layers=3,
            updates_per_object=2,
            n_programs=4,
            ops_per_program=3,
            key_space=4,
            max_think=1,
        )

    @staticmethod
    def long(n_programs: int = 200) -> "GeneratorProfile":
        """Long, conflict-sparse histories for the certification mode.

        Many objects and programs over a wide key space with shallow call
        structure and no Definition 5 self/up calls: the workload the fast
        certifier is built for (cooperative-editing-style sessions where
        conflicts are rare and histories run to 100k+ actions), and the
        shape ``repro certify --long`` and the C14 bench generate.
        """
        return GeneratorProfile(
            n_objects=40,
            n_layers=2,
            updates_per_object=2,
            n_programs=n_programs,
            ops_per_program=4,
            key_space=64,
            max_think=1,
            p_call=0.35,
            p_self_call=0.0,
            p_up_call=0.0,
        )


def sharded_profile(
    profile: GeneratorProfile | None, shards: int
) -> GeneratorProfile:
    """The workload profile a run over ``shards`` shards generates with.

    One object group per shard keeps the partitioner honest (every group
    becomes its own call component, so the hosted objects actually spread
    over the shards) while ``p_cross_group`` makes a steady fraction of
    transactions span shards — the 2PC/Def 16 surface under test.  A
    profile that is already grouped, or a single shard, is taken as-is.
    """
    profile = profile or GeneratorProfile()
    if shards <= 1 or profile.groups > 1:
        return profile
    return profile.grouped(shards)


def generate(seed: int, profile: GeneratorProfile | None = None) -> WorkloadSpec:
    """Derive a complete workload spec from a seed (deterministically)."""
    profile = profile or GeneratorProfile()
    rng = random.Random(seed)
    if profile.groups <= 1:
        # The historical single-group path, byte for byte: the RNG draw
        # order below must never change under the default profile.
        objects = _generate_objects(rng, profile)
        programs = _generate_programs(rng, profile, objects)
    else:
        group_objects = [
            _generate_objects(rng, profile, group=g)
            for g in range(profile.groups)
        ]
        objects = [spec for group in group_objects for spec in group]
        programs = _generate_group_programs(rng, profile, group_objects)
    return WorkloadSpec(
        seed=seed,
        key_space=profile.key_space,
        objects=objects,
        programs=programs,
    )


def _generate_objects(
    rng: random.Random, profile: GeneratorProfile, group: int | None = None
) -> list[ObjectSpec]:
    n_layers = min(profile.n_layers, profile.n_objects)
    # Every layer gets at least one object; the rest are spread at random.
    layer_of: list[int] = list(range(n_layers))
    layer_of += [rng.randrange(n_layers) for _ in range(profile.n_objects - n_layers)]
    layer_of.sort()
    # The layer stays the leading name component so the multilevel
    # protocol's prefix -> level matching works unchanged on grouped names.
    infix = "" if group is None else f"G{group}"
    names = [f"L{layer}{infix}O{i}" for i, layer in enumerate(layer_of)]

    specs: list[ObjectSpec] = []
    for i, (name, layer) in enumerate(zip(names, layer_of)):
        below = [
            (names[j], layer_of[j]) for j in range(len(names)) if layer_of[j] < layer
        ]
        above = [
            (names[j], layer_of[j]) for j in range(len(names)) if layer_of[j] > layer
        ]
        specs.append(_generate_object(rng, profile, name, layer, below, above))
    return specs


def _generate_object(
    rng: random.Random,
    profile: GeneratorProfile,
    name: str,
    layer: int,
    below: list[tuple[str, int]],
    above: list[tuple[str, int]],
) -> ObjectSpec:
    methods: list[MethodPlan] = []

    # ``aux``: a page-only update every object has — the target of self and
    # up calls (a terminal method, so call cycles cannot recurse).
    methods.append(
        MethodPlan(
            name="aux",
            plan=[["write", rng.randrange(profile.key_space)]],
            update=True,
            register_compensation=rng.random() < profile.p_compensation,
        )
    )
    # ``get``: a read-only probe.
    methods.append(
        MethodPlan(
            name="get",
            plan=[["read", 0], ["read", rng.randrange(profile.key_space)]],
            update=False,
            register_compensation=False,
        )
    )

    for m in range(profile.updates_per_object):
        plan: list = []
        n_ops = rng.randint(2, 4)
        for _ in range(n_ops):
            if below and rng.random() < profile.p_call:
                target, _target_layer = rng.choice(below)
                # The callee method is fixed at build time below, once all
                # objects exist; store a placeholder resolved here because
                # callee specs for lower layers are already generated.
                plan.append(
                    ["call", target, None, rng.randrange(profile.key_space)]
                )
            elif rng.random() < 0.5:
                plan.append(["write", rng.randrange(profile.key_space)])
            else:
                plan.append(["read", rng.randrange(profile.key_space)])
        if layer > 0 and rng.random() < profile.p_self_call:
            # Definition 5, direct form: X.m calls X.aux.
            plan.append(["call", name, "aux", rng.randrange(profile.key_space)])
        if above and rng.random() < profile.p_up_call:
            # Definition 5, indirect form: when a higher-layer object calls
            # this method, the up call re-enters the caller's object.
            target, _ = rng.choice(above)
            plan.append(["call", target, "aux", rng.randrange(profile.key_space)])
        if not any(op[0] == "write" for op in plan):
            plan.insert(0, ["write", rng.randrange(profile.key_space)])
        methods.append(
            MethodPlan(
                name=f"u{m}",
                plan=plan,
                update=True,
                register_compensation=rng.random() < profile.p_compensation,
            )
        )

    # Resolve placeholder callee methods: calls into lower layers target a
    # random update method (or the read probe) of the callee.
    spec = ObjectSpec(
        name=name,
        layer=layer,
        methods=methods,
        matrix={},
        state_threshold=profile.state_threshold,
    )
    _resolve_callees(rng, spec, below)
    spec.matrix = _generate_matrix(rng, profile, spec)
    return spec


def _resolve_callees(
    rng: random.Random, spec: ObjectSpec, below: list[tuple[str, int]]
) -> None:
    candidates = {name for name, _ in below}
    for plan in spec.methods:
        for op in plan.plan:
            if op[0] == "call" and op[2] is None:
                if op[1] not in candidates:  # pragma: no cover - defensive
                    op[2] = "aux"
                    continue
                roll = rng.random()
                if roll < 0.2:
                    op[2] = "get"
                else:
                    op[2] = "u0" if roll < 0.7 else "aux"


def _generate_matrix(
    rng: random.Random, profile: GeneratorProfile, spec: ObjectSpec
) -> dict[tuple[str, str], str]:
    """Draw a directional matrix over the object's public method alphabet.

    ``get``/``get`` always commutes (reads are reads); any pair involving
    ``get`` and an update draws from the full kind alphabet; update pairs
    draw from the full alphabet too, and the two directions of a pair are
    drawn independently with probability ``p_nonsym`` — otherwise mirrored —
    giving the deliberately non-symmetric entries.
    """
    public = [m.name for m in spec.methods]
    matrix: dict[tuple[str, str], str] = {}
    for i, a in enumerate(public):
        for b in public[i:]:
            if a == "get" and b == "get":
                matrix[(a, b)] = "commute"
                continue
            forward = _draw_kind(rng, profile)
            if rng.random() < 0.25:
                backward = _draw_kind(rng, profile)  # non-symmetric entry
            else:
                backward = forward
            matrix[(a, b)] = forward
            if a != b:
                matrix[(b, a)] = backward
    # Compensations inherit their base method's row/column: ``c_m`` behaves
    # like the inverse of ``m`` and conservatively conflicts like ``m`` does.
    for plan in list(spec.methods):
        if not plan.update:
            continue
        comp = f"c_{plan.name}"
        for (a, b), kind in list(matrix.items()):
            if a == plan.name:
                matrix.setdefault((comp, b), kind)
            if b == plan.name:
                matrix.setdefault((a, comp), kind)
        matrix.setdefault((comp, comp), matrix.get((plan.name, plan.name), "conflict"))
    return matrix


def _draw_kind(rng: random.Random, profile: GeneratorProfile) -> str:
    return rng.choices(ENTRY_KINDS, weights=profile.entry_weights, k=1)[0]


def _generate_programs(
    rng: random.Random, profile: GeneratorProfile, objects: list[ObjectSpec]
) -> list[ProgramSpec]:
    programs: list[ProgramSpec] = []
    roots = [o for o in objects if o.layer == max(o.layer for o in objects)]
    for t in range(profile.n_programs):
        ops: list = []
        for _ in range(profile.ops_per_program):
            roll = rng.random()
            if roll < 0.55:
                target = rng.choice(roots)
            else:
                # Any object, including leaves the roots reach indirectly:
                # the same transaction may access an object directly and
                # through a deeper call path.
                target = rng.choice(objects)
            method = rng.choice(
                [m.name for m in target.methods if m.name != "aux"] or ["get"]
            )
            ops.append(
                [
                    "send",
                    target.name,
                    method,
                    rng.randrange(profile.key_space),
                    rng.randint(1, profile.max_amount),
                ]
            )
            if profile.max_think:
                ops.append(["work", rng.randint(0, profile.max_think)])
        programs.append(ProgramSpec(label=f"T{t}", ops=ops))
    return programs


def _generate_group_programs(
    rng: random.Random,
    profile: GeneratorProfile,
    group_objects: list[list[ObjectSpec]],
) -> list[ProgramSpec]:
    """Programs over a grouped object graph (``profile.groups > 1``).

    Each program has a *home* group (round-robin, so every group gets
    load); each send stays home unless the ``p_cross_group`` coin sends it
    to another group — those are the transactions that span shards under
    the sharded runtime and must two-phase commit.
    """
    groups = len(group_objects)
    roots_of = [
        [o for o in objs if o.layer == max(o.layer for o in objs)]
        for objs in group_objects
    ]
    programs: list[ProgramSpec] = []
    for t in range(profile.n_programs):
        home = t % groups
        ops: list = []
        for _ in range(profile.ops_per_program):
            g = home
            if groups > 1 and rng.random() < profile.p_cross_group:
                g = rng.randrange(groups - 1)
                if g >= home:
                    g += 1
            roll = rng.random()
            if roll < 0.55:
                target = rng.choice(roots_of[g])
            else:
                target = rng.choice(group_objects[g])
            method = rng.choice(
                [m.name for m in target.methods if m.name != "aux"] or ["get"]
            )
            ops.append(
                [
                    "send",
                    target.name,
                    method,
                    rng.randrange(profile.key_space),
                    rng.randint(1, profile.max_amount),
                ]
            )
            if profile.max_think:
                ops.append(["work", rng.randint(0, profile.max_think)])
        programs.append(ProgramSpec(label=f"T{t}", ops=ops))
    return programs


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------


def _inverse_plan(plan: list) -> list:
    """The compensating plan: reversed, sign-flipped, calls to companions."""
    inverse: list = []
    for op in reversed(plan):
        if op[0] == "write":
            inverse.append(["write", op[1]])
        elif op[0] == "call":
            _, target, method, shift = op
            inverse.append(
                ["call", target, method if method == "get" else f"c_{method}", shift]
            )
        # reads need no undoing
    return inverse


def _make_body(plan: list, sign: int):
    def body(self, key: int = 0, amount: int = 1) -> int:
        return self._run_plan(plan, int(key), sign * int(amount))

    return body


def make_object_class(spec: ObjectSpec, key_space: int) -> type[FuzzObjectBase]:
    """Synthesize the ``DatabaseObject`` subclass for one object spec."""
    namespace: dict[str, Any] = {
        "key_space": key_space,
        "page_capacity": 2 * key_space + 8,
        "commutativity": FuzzCommutativity(spec.matrix, spec.state_threshold),
        "__doc__": f"Generated fuzz object {spec.name} (layer {spec.layer}).",
    }
    for plan in spec.methods:
        compensation = f"c_{plan.name}" if plan.register_compensation else None
        body = _make_body(plan.plan, +1)
        body.__name__ = plan.name
        namespace[plan.name] = dbmethod(
            update=plan.update, compensation=compensation
        )(body)
        if plan.update:
            inverse = _make_body(_inverse_plan(plan.plan), -1)
            inverse.__name__ = f"c_{plan.name}"
            namespace[f"c_{plan.name}"] = dbmethod(update=True)(inverse)
    return type(f"Fz{spec.name}", (FuzzObjectBase,), namespace)


def build_program(pspec: ProgramSpec, kind: str = "fuzz") -> TransactionProgram:
    """Compile one program spec into an executable transaction program."""
    return program_from_ops(
        pspec.label, pspec.ops, max_restarts=pspec.max_restarts, kind=kind
    )


def build_workload(
    db: ObjectDatabase,
    spec: WorkloadSpec,
    *,
    objects: list[ObjectSpec] | None = None,
    programs: list[ProgramSpec] | None = None,
) -> tuple[list[str], list[TransactionProgram]]:
    """Materialize a workload spec on a fresh database.

    Returns ``(object_ids, programs)`` — the same builder shape the
    cross-protocol comparison engine expects.  ``objects``/``programs``
    restrict the build to a subset of the spec (in the given order) — the
    sharded runtime materializes only a shard's owned objects and branch
    programs on each shard database.
    """
    oids: list[str] = []
    for ospec in spec.objects if objects is None else objects:
        cls = make_object_class(ospec, spec.key_space)
        oids.append(db.create(cls, oid=ospec.name))

    compiled = [
        build_program(pspec)
        for pspec in (spec.programs if programs is None else programs)
    ]
    return oids, compiled


def host_workload(
    spec: WorkloadSpec,
    protocol: str | None = None,
    *,
    objects: list[ObjectSpec] | None = None,
    programs: list[ProgramSpec] | None = None,
    wal=None,
    store=None,
    checkpoint_every: int | None = None,
    bus=None,
) -> tuple[ObjectDatabase, list[str], list[TransactionProgram]]:
    """A fresh database hosting the spec: ``(db, object_ids, programs)``.

    The one place a workload spec becomes a database — fuzz cells, crash
    legs, shard units, segment recovery and the service all host through
    here.  Bootstrap is deterministic, so every database hosted from the
    same spec (and ``objects`` subset) assigns identical page ids — which
    is what lets a *recovery* database (no protocol, no WAL) resolve a
    crashed run's object directory.
    """
    db = ObjectDatabase(
        scheduler=make_scheduler(protocol, spec.layers()) if protocol else None,
        page_capacity=spec.page_capacity,
        wal=wal,
        store=store,
        checkpoint_every=checkpoint_every,
        bus=bus,
    )
    oids, compiled = build_workload(
        db, spec, objects=objects, programs=programs
    )
    return db, oids, compiled
