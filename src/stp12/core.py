"""Instance model, cost function, and the partition/collapse machinery.

The metric has distances 1 and 2 only, so it is fully described by a graph:
adjacent pairs are at distance 1, everything else at distance 2.  A solution
is a set of unordered node pairs ("connections"); a pair that is a graph edge
costs 1, a non-edge costs 2.  Greedy algorithms grow a partial solution by
collapsing connected sets of components, which this module tracks with a
union-find structure plus the induced component graph.  `DisjointSets` is
the one union-find every module uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class InputError(ValueError):
    """Raised when caller-supplied data violates an operation's domain."""


class ContractViolation(RuntimeError):
    """Raised when an internal precondition (e.g. spanning-tree shape) fails."""


class CapExceeded(RuntimeError):
    """Raised when an exact procedure is asked to run beyond its size cap."""


# A connection is an unordered pair of distinct node ids, stored (min, max).
Connection = tuple[int, int]


def connection(u: int, v: int) -> Connection:
    if u == v:
        raise InputError(f"connection endpoints must differ, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Instance:
    """A graph defining the 1/2 metric, plus the set of terminal nodes.

    Adjacency is kept as one bitmask per node, which makes neighbourhood
    scans and membership tests cheap at desk scale (n up to a few thousand).
    """

    node_count: int
    adjacency: tuple[int, ...]
    terminals: frozenset[int]

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        terminals: Iterable[int],
    ) -> "Instance":
        if node_count <= 0:
            raise InputError("node_count must be positive")
        masks = [0] * node_count
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InputError(f"edge ({u}, {v}) out of range 0..{node_count - 1}")
            if u == v:
                raise InputError(f"self-loop at node {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        terms = frozenset(terminals)
        for t in terms:
            if not (0 <= t < node_count):
                raise InputError(f"terminal {t} out of range 0..{node_count - 1}")
        return cls(node_count, tuple(masks), terms)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.adjacency[u] >> v & 1)

    def neighbors(self, u: int) -> Iterator[int]:
        mask = self.adjacency[u]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.node_count):
            mask = self.adjacency[u] >> (u + 1) << (u + 1)
            while mask:
                low = mask & -mask
                yield u, low.bit_length() - 1
                mask ^= low

    def is_terminal(self, v: int) -> bool:
        return v in self.terminals

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adjacency) // 2


def cost(instance: Instance, connections: Iterable[Connection]) -> int:
    """Total cost of a connection set: 1 per edge pair, 2 per non-edge pair."""
    total = 0
    for u, v in connections:
        if not (0 <= u < instance.node_count and 0 <= v < instance.node_count):
            raise InputError(f"connection ({u}, {v}) endpoint out of range")
        if u == v:
            raise InputError(f"connection ({u}, {v}) endpoints must differ")
        total += 1 if instance.has_edge(u, v) else 2
    return total


def is_valid_solution(instance: Instance, connections: Iterable[Connection]) -> bool:
    """True iff all terminals lie in one connected component of (V, connections)."""
    terms = instance.terminals
    if len(terms) <= 1:
        return True
    sets = DisjointSets(instance.node_count)
    for u, v in connections:
        if not (0 <= u < instance.node_count and 0 <= v < instance.node_count):
            raise InputError(f"connection ({u}, {v}) endpoint out of range")
        sets.union(u, v)
    return len({sets.find(t) for t in terms}) == 1


@dataclass(frozen=True)
class Solution:
    connections: frozenset[Connection]
    cost: int

    @classmethod
    def from_connections(
        cls, instance: Instance, connections: Iterable[Connection]
    ) -> "Solution":
        conns = frozenset(connection(u, v) for u, v in connections)
        return cls(conns, cost(instance, conns))


class DisjointSets:
    """Union-find over the ids 0..size-1.

    Each set is identified by its smallest member, which keeps representative
    choices and tie-breaking stable across runs.
    """

    def __init__(self, size: int):
        self._parent = list(range(size))

    def find(self, v: int) -> int:
        parent = self._parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False if they already were one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra < rb:
            self._parent[rb] = ra
        else:
            self._parent[ra] = rb
        return True


class PartitionState(DisjointSets):
    """Union-find over nodes with terminal flags and the accumulated solution."""

    def __init__(self, instance: Instance):
        super().__init__(instance.node_count)
        self.instance = instance
        self._terminal_flag = [v in instance.terminals for v in range(instance.node_count)]
        self.connections: list[Connection] = []
        self.cost = 0

    def components(self) -> list[int]:
        return sorted({self.find(v) for v in range(self.instance.node_count)})

    def component_count(self) -> int:
        return len({self.find(v) for v in range(self.instance.node_count)})

    def is_terminal_component(self, root: int) -> bool:
        return self._terminal_flag[self.find(root)]

    def terminal_components(self) -> list[int]:
        return [r for r in self.components() if self._terminal_flag[r]]

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if not super().union(ra, rb):
            return False
        flags = self._terminal_flag
        flags[min(ra, rb)] = flags[ra] or flags[rb]
        return True


@dataclass(frozen=True)
class ComponentGraph:
    """The graph induced on components, with one representative pair per edge."""

    components: tuple[int, ...]
    edges: dict[tuple[int, int], Connection] = field(default_factory=dict)


def induced_graph(instance: Instance, state: PartitionState) -> ComponentGraph:
    """Component graph of the current partition.

    Two components are adjacent iff some instance edge crosses them; the
    stored representative is the lexicographically smallest such pair.
    """
    edges: dict[tuple[int, int], Connection] = {}
    for u, v in instance.edges():
        ru, rv = state.find(u), state.find(v)
        if ru == rv:
            continue
        key = (ru, rv) if ru < rv else (rv, ru)
        rep = (u, v)
        old = edges.get(key)
        if old is None or rep < old:
            edges[key] = rep
    return ComponentGraph(tuple(state.components()), edges)


def collapse(
    state: PartitionState,
    components: Iterable[int],
    tree_edges: Iterable[Connection],
) -> PartitionState:
    """Merge the given components along tree_edges, accounting real cost.

    tree_edges must be representatives forming a spanning tree of the
    selected components: exactly k-1 connections for k components, touching
    only those components, and connecting all of them.
    """
    comps = sorted(set(components))
    if len(comps) < 2:
        raise ContractViolation("collapse needs at least two components")
    for r in comps:
        if state.find(r) != r:
            raise ContractViolation(f"{r} is not a current component root")
    conns = [connection(u, v) for u, v in tree_edges]
    if len(conns) != len(comps) - 1:
        raise ContractViolation(
            f"{len(comps)} components need {len(comps) - 1} tree edges, got {len(conns)}"
        )
    # Check the edges span the selected components without cycles.
    index = {r: i for i, r in enumerate(comps)}
    mini = DisjointSets(len(comps))
    for u, v in conns:
        ru, rv = state.find(u), state.find(v)
        if ru not in index or rv not in index:
            raise ContractViolation(f"connection ({u}, {v}) leaves the selected components")
        if not mini.union(index[ru], index[rv]):
            raise ContractViolation(f"connection ({u}, {v}) closes a cycle")
    if len({mini.find(i) for i in range(len(comps))}) != 1:
        raise ContractViolation("tree edges do not connect the selected components")

    for u, v in conns:
        state.union(u, v)
        state.connections.append((u, v))
    state.cost += cost(state.instance, conns)
    return state
