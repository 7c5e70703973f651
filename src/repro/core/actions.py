"""Messages and actions (Definitions 1-3).

A *message* ``O.m(parameters)`` is a parameterized method of an object sent
to that object (Definition 1).  Messages relevant to concurrency control are
hierarchically numbered and called *actions* (Definition 2); an action that
calls no other action is *primitive* (Definition 3).

An :class:`ActionNode` is one action inside the call tree of an
object-oriented transaction.  The tree records

- the call relationship ``m -> m'`` (parent/children),
- the (transaction) precedence relation: a partial order over each action
  set ``A_w`` (the direct children of an action), and
- an execution sequence number ``seq`` which supplies the total order on
  conflicting primitive actions required by Axiom 1.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ModelError
from repro.core.identifiers import ActionId, ObjectId, format_action_id


@dataclass(frozen=True)
class Invocation:
    """A method invocation as seen by a commutativity specification.

    Commutativity (Definition 9) may depend on the method name, its
    parameters and — for escrow-style specifications — the object state at
    execution time, which is why the invocation carries an optional free-form
    ``state`` snapshot.
    """

    obj: ObjectId
    method: str
    args: tuple = ()
    state: object = None

    def __hash__(self) -> int:
        # Invocations key the lock table's commutativity memo cache, where
        # each is hashed once per held-lock comparison; the generated
        # dataclass hash would rebuild the field tuple every time.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.obj, self.method, self.args, self.state))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        rendered_args = ", ".join(repr(a) for a in self.args)
        return f"{self.obj}.{self.method}({rendered_args})"


@dataclass(eq=False, slots=True)
class ActionNode:
    """One action in an oo-transaction tree.

    Identity is by object identity (two nodes with equal fields are still
    distinct actions); ``aid`` is unique within a transaction system and used
    for ordering and display.

    Committed trees stay in memory for the life of a service (the judges
    read every action), so a node is slotted and a primitive one allocates
    no container: ``children`` stays ``()`` and ``precedence`` stays
    ``frozenset()`` until the first child or edge replaces them with a list
    and a set.
    """

    aid: ActionId
    obj: ObjectId
    method: str
    args: tuple = ()
    parent: Optional["ActionNode"] = None
    top: str = ""
    seq: int = 0
    #: object-state snapshot taken when the action was dispatched; carried
    #: into :meth:`invocation` so that state-dependent commutativity
    #: specifications (escrow, queues) evaluate identically at scheduling
    #: time and at analysis time.
    state: object = None
    virtual: bool = False
    original: Optional["ActionNode"] = None
    children: list["ActionNode"] | tuple = ()
    #: precedence edges among direct children, as pairs of child aids
    precedence: set[tuple[ActionId, ActionId]] | frozenset = frozenset()
    #: set by the builder: next seq number source (root nodes only)
    _seq_counter: list[int] | None = None
    #: transitive closure of ``precedence``; reset by every mutation
    _closure_cache: set[tuple[ActionId, ActionId]] | None = field(
        default=None, init=False, repr=False
    )

    # -- construction ------------------------------------------------------

    def call(
        self,
        obj: ObjectId,
        method: str,
        args: tuple = (),
        *,
        parallel: bool = False,
        seq: int | None = None,
    ) -> "ActionNode":
        """Append a called action (a child in the call tree).

        By default the new action is ordered after the previous sibling
        (sequential programs).  With ``parallel=True`` no precedence edge is
        added, modelling intra-transaction parallelism: the new action forms
        its own *process* in the sense of Definition 9.
        """
        child_index = len(self.children) + 1
        child = ActionNode(
            aid=self.aid + (child_index,),
            obj=obj,
            method=method,
            args=args,
            parent=self,
            top=self.top,
            seq=self._next_seq() if seq is None else seq,
        )
        if not self.children:
            self.children = [child]
        else:
            if not parallel:
                self._add_edge((self.children[-1].aid, child.aid))
            self.children.append(child)
        return child

    def add_precedence(self, before: "ActionNode", after: "ActionNode") -> None:
        """Record that ``before`` precedes ``after`` in this action set."""
        if before.parent is not self or after.parent is not self:
            raise ModelError(
                "precedence is only defined between actions of one action set"
            )
        if before is after:
            raise ModelError("an action cannot precede itself")
        self._add_edge((before.aid, after.aid))

    def _add_edge(self, edge: tuple[ActionId, ActionId]) -> None:
        if self.precedence:
            self.precedence.add(edge)
        else:
            self.precedence = {edge}
        self._closure_cache = None

    def _next_seq(self) -> int:
        root = self.root
        if root._seq_counter is None:
            root._seq_counter = [0]
        root._seq_counter[0] += 1
        return root._seq_counter[0]

    # -- structure queries (Definitions 1-3) --------------------------------

    @property
    def is_primitive(self) -> bool:
        """Definition 3: an action is primitive if it calls no other action."""
        return not self.children

    @property
    def root(self) -> "ActionNode":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    @property
    def depth(self) -> int:
        return len(self.aid) - 1

    def iter_subtree(self) -> Iterator["ActionNode"]:
        """This action and all actions it transitively calls (``m ->+``)."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def descendants(self) -> Iterator["ActionNode"]:
        """All actions transitively called by this one (``m ->*``)."""
        for child in self.children:
            yield from child.iter_subtree()

    def ancestors(self) -> Iterator["ActionNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def calls(self, other: "ActionNode") -> bool:
        """Direct call relationship ``self -> other``."""
        return other.parent is self

    def calls_transitively(self, other: "ActionNode") -> bool:
        """Transitive call relationship ``self ->* other`` (proper)."""
        return any(node is self for node in other.ancestors())

    def sibling_index(self) -> int:
        if self.parent is None:
            raise ModelError("the root action has no siblings")
        for index, child in enumerate(self.parent.children):
            if child is self:
                return index
        raise ModelError("action is not among its parent's children")

    # -- precedence queries --------------------------------------------------

    def precedes_sibling(self, other: "ActionNode") -> bool:
        """True iff ``self`` precedes ``other`` in their shared action set.

        Uses the transitive closure of the recorded precedence edges.
        """
        if self.parent is None or other.parent is not self.parent:
            return False
        closure = self.parent._precedence_closure()
        return (self.aid, other.aid) in closure

    def ordered_with_sibling(self, other: "ActionNode") -> bool:
        return self.precedes_sibling(other) or other.precedes_sibling(self)

    def _precedence_closure(self) -> set[tuple[ActionId, ActionId]]:
        """Transitive closure of the precedence edges among the children.

        Cached: the builder API invalidates the cache whenever a child or a
        precedence edge is added (sequential builders would otherwise pay a
        quadratic closure per query).
        """
        cached = self._closure_cache
        if cached is not None:
            return cached
        successors: dict[ActionId, set[ActionId]] = {}
        for before, after in self.precedence:
            successors.setdefault(before, set()).add(after)
        closure: set[tuple[ActionId, ActionId]] = set()
        for start in successors:
            frontier = list(successors[start])
            seen: set[ActionId] = set()
            while frontier:
                node = frontier.pop()
                if node in seen:
                    continue
                seen.add(node)
                closure.add((start, node))
                frontier.extend(successors.get(node, ()))
        self._closure_cache = closure
        return closure

    # -- invocation view ------------------------------------------------------

    def invocation(self) -> Invocation:
        return Invocation(self.obj, self.method, self.args, state=self.state)

    # -- display ---------------------------------------------------------------

    @property
    def label(self) -> str:
        rendered_args = ",".join(str(a) for a in self.args)
        suffix = f"({rendered_args})" if self.args else "()"
        return f"{self.obj}.{self.method}{suffix}[{format_action_id(self.aid)}]"

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"<Action {self.label} top={self.top} seq={self.seq}>"

    def pretty(self, indent: int = 0) -> str:
        """Render this subtree as an indented call-tree listing."""
        lines = [" " * indent + self.label + ("  (virtual)" if self.virtual else "")]
        for child in self.children:
            lines.append(child.pretty(indent + 2))
        return "\n".join(lines)


def lowest_common_ancestor(a: ActionNode, b: ActionNode) -> ActionNode | None:
    """The deepest action that transitively calls both ``a`` and ``b``.

    Returns None when the actions belong to different transaction trees.
    An action counts as its own ancestor here, so ``lca(a, a) is a`` and
    ``lca(parent, child) is parent``.
    """
    ancestors_of_a = {id(a): a}
    for node in a.ancestors():
        ancestors_of_a[id(node)] = node
    node: ActionNode | None = b
    while node is not None:
        if id(node) in ancestors_of_a:
            return node
        node = node.parent
    return None


def same_process(a: ActionNode, b: ActionNode) -> bool:
    """Definition 9's exemption: actions of the same process never conflict.

    Two actions belong to the same process when they are part of the same
    top-level transaction and their execution is sequenced by the program:
    one (transitively) calls the other, or the branches leading to them from
    their lowest common ancestor are ordered by the precedence relation.
    Unordered branches are concurrent processes inside one transaction and
    *can* conflict.
    """
    if a is b:
        return True
    if a.root is not b.root:
        return False
    lca = lowest_common_ancestor(a, b)
    if lca is None:
        return False
    if lca is a or lca is b:
        return True  # ancestor/descendant: sequenced by the call itself
    branch_a = _child_of_on_path(lca, a)
    branch_b = _child_of_on_path(lca, b)
    return branch_a.ordered_with_sibling(branch_b)


def _child_of_on_path(ancestor: ActionNode, descendant: ActionNode) -> ActionNode:
    """The child of ``ancestor`` lying on the path down to ``descendant``."""
    node = descendant
    while node.parent is not ancestor:
        if node.parent is None:
            raise ModelError("descendant is not below ancestor")
        node = node.parent
    return node
