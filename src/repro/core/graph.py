"""A small directed-graph toolkit used by the dependency analysis.

The paper's serializability conditions are acyclicity conditions on
dependency relations (Definitions 13 and 16), so the core needs cycle
detection, cycle witnesses (for diagnostics), topological orders (to exhibit
equivalent serial schedules) and transitive closures (for the call
relationship ``->*``).  Two detectors are provided:

- :class:`DirectedGraph` stores a relation and answers batch queries
  (``find_cycle``, ``topological_order``); adjacency is kept in insertion
  order, so every traversal is deterministic even over identity-hashed
  nodes.
- :class:`OnlineTopology` maintains a topological order *incrementally*
  (Pearce–Kelly): ``add_edge_checked`` reports the first cycle at insertion
  time in amortized sub-linear work, instead of a full DFS per query.  The
  incremental dependency engine watches its relations with one of these.

The implementation is self-contained; ``networkx`` is only used in the test
suite to cross-check these algorithms.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Generic, TypeVar

Node = TypeVar("Node", bound=Hashable)


class DirectedGraph(Generic[Node]):
    """A mutable directed graph over hashable nodes.

    Self-loops are permitted (a self-loop is a cycle of length one, which
    matters for contradiction detection: an action depending on itself is a
    contradiction in the sense of the paper's Section 1).

    Nodes and per-node successors are stored in insertion order; the
    dependency engine relies on this to replay the batch analysis's
    derivation order exactly (see ``insert_edge``).
    """

    def __init__(self, edges: Iterable[tuple[Node, Node]] = ()) -> None:
        # dict values are per-source insertion indexes (0, 1, 2, ...);
        # ``_pred`` only needs the key order, so values stay None.
        self._succ: dict[Node, dict[Node, int]] = {}
        self._pred: dict[Node, dict[Node, None]] = {}
        self._node_index: dict[Node, int] = {}
        for src, dst in edges:
            self.add_edge(src, dst)

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Ensure ``node`` is present, with no edges added."""
        if node not in self._succ:
            self._node_index[node] = len(self._node_index)
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, src: Node, dst: Node) -> None:
        """Add the edge ``src -> dst`` (idempotent)."""
        self.add_node(src)
        self.add_node(dst)
        slot = self._succ[src]
        if dst not in slot:
            slot[dst] = len(slot)
            self._pred[dst][src] = None

    def copy(self) -> "DirectedGraph[Node]":
        clone: DirectedGraph[Node] = DirectedGraph()
        for node in self._succ:
            clone.add_node(node)
        for src, dst in self.iter_edges():
            clone.add_edge(src, dst)
        return clone

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> set[Node]:
        return set(self._succ)

    @property
    def edges(self) -> set[tuple[Node, Node]]:
        return {(src, dst) for src, dsts in self._succ.items() for dst in dsts}

    def iter_nodes(self) -> Iterator[Node]:
        """Iterate nodes in insertion order without materializing a set."""
        return iter(self._succ)

    def iter_edges(self) -> Iterator[tuple[Node, Node]]:
        """Iterate edges grouped by source, in insertion order, copy-free.

        Do not mutate the adjacency of the sources being iterated; the
        fixpoint rules only ever add edges to *other* relations while
        scanning one, which keeps lazy iteration safe.
        """
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def insert_edge(self, src: Node, dst: Node) -> tuple[int, int] | None:
        """Add ``src -> dst`` if absent; return its position, else None.

        The position is the edge's place in ``iter_edges`` order.  The
        dependency engine tags each newly observed edge with it so a
        worklist round can process new edges in exactly the order the batch
        fixpoint would have encountered them while rescanning the whole
        relation — the property that keeps the engine's first-reason-wins
        provenance and cycle witnesses byte-identical to that fixpoint's.
        """
        slot = self._succ.get(src)
        if slot is None:
            self.add_node(src)
            slot = self._succ[src]
        elif dst in slot:
            return None
        self.add_node(dst)
        index = slot[dst] = len(slot)
        self._pred[dst][src] = None
        return (self._node_index[src], index)

    def successors(self, node: Node) -> set[Node]:
        return set(self._succ.get(node, ()))

    def predecessors(self, node: Node) -> set[Node]:
        return set(self._pred.get(node, ()))

    def has_edge(self, src: Node, dst: Node) -> bool:
        return dst in self._succ.get(src, ())

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    # -- algorithms --------------------------------------------------------

    def find_cycle(self) -> list[Node] | None:
        """Return one cycle as a node list ``[n0, n1, ..., n0]``, or None.

        Iterative DFS with colouring; deterministic given insertion order
        (neighbours are visited in sorted order when the nodes are sortable,
        insertion order otherwise).
        """
        white, grey, black = 0, 1, 2
        colour = {node: white for node in self._succ}
        parent: dict[Node, Node] = {}

        for root in self._iteration_order(self._succ):
            if colour[root] != white:
                continue
            stack: list[tuple[Node, Iterator[Node]]] = [
                (root, iter(self._iteration_order(self._succ[root])))
            ]
            colour[root] = grey
            while stack:
                node, neighbours = stack[-1]
                advanced = False
                for nxt in neighbours:
                    if colour[nxt] == grey or nxt == node:
                        # Found a cycle: unwind parents from node back to nxt.
                        cycle = [node]
                        cur = node
                        while cur != nxt:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.reverse()
                        cycle.append(cycle[0])
                        return cycle
                    if colour[nxt] == white:
                        colour[nxt] = grey
                        parent[nxt] = node
                        stack.append(
                            (nxt, iter(self._iteration_order(self._succ[nxt])))
                        )
                        advanced = True
                        break
                if not advanced:
                    colour[node] = black
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def topological_order(self) -> list[Node]:
        """Return a topological order (Kahn); raises ValueError on a cycle."""
        indegree = {node: len(self._pred[node]) for node in self._succ}
        ready = [node for node in self._iteration_order(self._succ) if indegree[node] == 0]
        order: list[Node] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for nxt in self._iteration_order(self._succ[node]):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self._succ):
            raise ValueError("graph has a cycle; no topological order exists")
        return order

    def reachable_from(self, node: Node) -> set[Node]:
        """All nodes reachable from ``node`` (excluding ``node`` unless on a cycle)."""
        seen: set[Node] = set()
        frontier = list(self._succ.get(node, ()))
        while frontier:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            frontier.extend(self._succ.get(cur, ()))
        return seen

    def transitive_closure(self) -> "DirectedGraph[Node]":
        closure: DirectedGraph[Node] = DirectedGraph()
        for node in self._succ:
            closure.add_node(node)
            for dst in self.reachable_from(node):
                closure.add_edge(node, dst)
        return closure

    def union(self, other: "DirectedGraph[Node]") -> "DirectedGraph[Node]":
        merged = self.copy()
        for node in other.iter_nodes():
            merged.add_node(node)
        for src, dst in other.iter_edges():
            merged.add_edge(src, dst)
        return merged

    @staticmethod
    def _iteration_order(nodes: Iterable[Node]) -> list[Node]:
        """Sort nodes when possible so that algorithms are deterministic."""
        items = list(nodes)
        try:
            return sorted(items)  # type: ignore[type-var]
        except TypeError:
            return items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirectedGraph(nodes={len(self._succ)}, edges={len(self.edges)})"


class OnlineTopology(Generic[Node]):
    """Incremental cycle detection via an online topological order.

    Pearce–Kelly (2006): maintain a total order ``ord`` consistent with all
    edges inserted so far.  Inserting ``src -> dst`` with
    ``ord[src] < ord[dst]`` costs O(1); otherwise only the *affected
    region* — nodes ordered between ``dst`` and ``src`` and reachable
    from/to the new edge — is searched and reordered.  If the forward
    search from ``dst`` reaches ``src``, the insertion closes a cycle,
    which is reported immediately as a witness path.

    Dependency relations only grow, so once a cycle exists it exists
    forever; after the first cycle is reported the structure stops
    maintaining the order and records further insertions in O(1).
    """

    def __init__(self) -> None:
        self._index: dict[Node, int] = {}
        # adjacency in insertion order; dict keys double as the edge set
        self._succ: dict[Node, dict[Node, None]] = {}
        self._pred: dict[Node, dict[Node, None]] = {}
        #: the first cycle closed by an insertion, as ``[n0, ..., n0]``
        self.cycle: list[Node] | None = None

    def __len__(self) -> int:
        return len(self._index)

    @property
    def has_cycle(self) -> bool:
        return self.cycle is not None

    def add_node(self, node: Node) -> None:
        if node not in self._index:
            self._index[node] = len(self._index)
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge_checked(self, src: Node, dst: Node) -> list[Node] | None:
        """Insert ``src -> dst``; return the first cycle it closes, or None.

        The witness has the shape ``[src, dst, ..., src]``: the new edge
        followed by an existing path back from ``dst`` to ``src``.  Once a
        cycle has been reported (on this or an earlier insertion), later
        insertions return None without searching — ``cycle`` keeps the
        original witness.
        """
        index = self._index
        if src not in index:
            self.add_node(src)
        if dst not in index:
            self.add_node(dst)
        successors = self._succ[src]
        if dst in successors:
            return None
        successors[dst] = None
        self._pred[dst][src] = None
        if self.cycle is not None:
            return None  # already permanently cyclic; order abandoned
        if src is dst or src == dst:
            self.cycle = [src, src]
            return self.cycle
        lower, upper = index[dst], index[src]
        if lower > upper:
            return None  # order already consistent
        return self._discover(src, dst, lower, upper)

    def _discover(
        self, src: Node, dst: Node, lower: int, upper: int
    ) -> list[Node] | None:
        """The PK affected-region pass: find a cycle or restore the order."""
        index = self._index
        # Forward from dst, bounded by ord <= ord[src]; reaching src is a
        # cycle (indexes are unique, so ord == upper identifies src).
        forward: list[Node] = []
        parent: dict[Node, Node] = {}
        seen = {dst}
        stack = [dst]
        while stack:
            node = stack.pop()
            forward.append(node)
            for nxt in self._succ[node]:
                if nxt in seen:
                    continue
                nxt_index = index[nxt]
                if nxt_index == upper:
                    path = [node]
                    while path[-1] is not dst:
                        path.append(parent[path[-1]])
                    path.reverse()
                    self.cycle = [src, *path, src]
                    return self.cycle
                if nxt_index < upper:
                    seen.add(nxt)
                    parent[nxt] = node
                    stack.append(nxt)
        # Backward from src, bounded by ord >= ord[dst].
        backward: list[Node] = []
        seen_back = {src}
        stack = [src]
        while stack:
            node = stack.pop()
            backward.append(node)
            for prv in self._pred[node]:
                if prv not in seen_back and index[prv] > lower:
                    seen_back.add(prv)
                    stack.append(prv)
        # Reorder: everything reaching src moves before everything reachable
        # from dst, reusing the affected nodes' own index pool.
        backward.sort(key=index.__getitem__)
        forward.sort(key=index.__getitem__)
        pool = sorted(index[node] for node in backward + forward)
        for node, slot in zip(backward + forward, pool):
            index[node] = slot
        return None
