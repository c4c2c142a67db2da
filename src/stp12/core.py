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

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
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

    Each node keeps its neighbours as one ascending tuple, so memory grows
    with n + m, not with n^2, and `from_edges` takes O(n + m log d) for
    degree d.  `has_edge` is a binary search in one tuple.  The exact oracles
    want one bitmask per node; those are built from the tuples on the first
    read of `adjacency` and kept, so the heuristics never build them.  The
    terminal data every heuristic run reads (`terminal_flags`,
    `sorted_terminals` and `terminal_edges`) is built the same way, once
    per instance, so repeated runs on one instance share it.
    """

    node_count: int
    neighbourhoods: tuple[tuple[int, ...], ...]
    terminals: frozenset[int]

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        terminals: Iterable[int],
    ) -> "Instance":
        """Instance over nodes 0..node_count-1; an edge listed twice counts once."""
        if node_count <= 0:
            raise InputError("node_count must be positive")
        around: list[list[int]] = [[] for _ in range(node_count)]
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InputError(f"edge ({u}, {v}) out of range 0..{node_count - 1}")
            if u == v:
                raise InputError(f"self-loop at node {u}")
            around[u].append(v)
            around[v].append(u)
        terms = frozenset(terminals)
        for t in terms:
            if not (0 <= t < node_count):
                raise InputError(f"terminal {t} out of range 0..{node_count - 1}")
        neighbourhoods = tuple([tuple(sorted(set(vs))) for vs in around])
        return cls(node_count, neighbourhoods, terms)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """One neighbour bitmask per node (bit v set iff v is a neighbour)."""
        masks = []
        for vs in self.neighbourhoods:
            mask = 0
            for v in vs:
                mask |= 1 << v
            masks.append(mask)
        return tuple(masks)

    @cached_property
    def terminal_flags(self) -> tuple[bool, ...]:
        """flags[v] is True iff v is a terminal."""
        flags = [False] * self.node_count
        for t in self.terminals:
            flags[t] = True
        return tuple(flags)

    @cached_property
    def sorted_terminals(self) -> tuple[int, ...]:
        """The terminals, ascending."""
        return tuple(sorted(self.terminals))

    @cached_property
    def terminal_edges(self) -> tuple[tuple[int, int], ...]:
        """The edges joining two terminals, as (u, v) with u < v, in lexicographic order."""
        flags = self.terminal_flags
        around = self.neighbourhoods
        return tuple([(u, v) for u in self.sorted_terminals for v in around[u]
                      if v > u and flags[v]])

    def has_edge(self, u: int, v: int) -> bool:
        around = self.neighbourhoods[u]
        i = bisect_left(around, v)
        return i < len(around) and around[i] == v

    def neighbors(self, u: int) -> tuple[int, ...]:
        """The neighbours of u, ascending."""
        return self.neighbourhoods[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u, around in enumerate(self.neighbourhoods):
            for v in around[bisect_right(around, u):]:
                yield u, v

    def edge_count(self) -> int:
        return sum(map(len, self.neighbourhoods)) // 2


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


# free node -> roots of the terminal components it has an edge to
# (`edges_to` picks the edge to each)
TerminalView = dict[int, set[int]]


@dataclass
class ViewUpkeep:
    """A partition's terminal view, kept current by its merges.

    `touching` maps each terminal root to the free nodes whose view entry
    holds it.  `comets` is where `sixphase.best_comet` keeps each center's
    best comet sort key between calls, for comets with cost index below 1.

    `sizes` is a lazy min-heap of `(-len(entry), center)`: a merge pushes an
    entry again only when its size changes, and `largest` drops the tops
    that no longer match the view.

    Once `comets` exists, every merge also adds to `reshaped` the closed
    neighbourhood of every node whose entry it changed, added or removed
    (see `_absorb`); a result that depends only on the entries of a node
    and its neighbours still holds everywhere else.
    """

    view: TerminalView
    touching: dict[int, set[int]]
    sizes: list[tuple[int, int]]
    comets: dict[int, tuple] | None = None
    reshaped: set[int] = field(default_factory=set)

    def largest(self) -> int | None:
        """Center of the largest entry, ties to the smallest; None if empty."""
        view, sizes = self.view, self.sizes
        while sizes:
            size, center = sizes[0]
            reps = view.get(center)
            if reps is not None and len(reps) == -size:
                return center
            heapq.heappop(sizes)
        return None


class PartitionState(DisjointSets):
    """Union-find over nodes with terminal flags and the accumulated solution.

    It is the one handle on a partition: every function that reads or grows
    one takes the state and reads the instance off it.  Every merge joins at
    least one terminal component, so a component without a terminal is a
    single free node.  `absorbed` lists the free nodes merged into terminal
    components, so every member of a terminal component is a terminal or
    an absorbed node.  The terminal view is built on its first read and
    from then on updated by every merge, whether it comes from `collapse`
    or a direct `union`.
    """

    def __init__(self, instance: Instance):
        super().__init__(instance.node_count)
        self.instance = instance
        self._terminal_flag = list(instance.terminal_flags)
        self._upkeep: ViewUpkeep | None = None
        self.absorbed: list[int] = []
        self.connections: list[Connection] = []
        self.cost = 0

    def is_terminal_component(self, root: int) -> bool:
        return self._terminal_flag[self.find(root)]

    def terminal_components(self) -> list[int]:
        return sorted({self.find(t) for t in self.instance.terminals})

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.merge((ra, rb))
        return True

    def merge(self, roots: Iterable[int]) -> None:
        """Merge distinct current component roots into one terminal component.

        At least one of the roots must be a terminal component; the others
        are free nodes, which the merged component absorbs.
        """
        roots = list(roots)
        flags = self._terminal_flag
        terminal_roots = [r for r in roots if flags[r]]
        if not terminal_roots:
            raise ContractViolation(f"merge of {sorted(roots)} joins no terminal component")
        root = min(roots)
        absorbed = [r for r in roots if not flags[r]]
        self.absorbed.extend(absorbed)
        if self._upkeep is not None:
            _absorb(self, self._upkeep, terminal_roots, absorbed, root)
        for r in roots:
            self._parent[r] = root
        flags[root] = True

    def view_upkeep(self) -> ViewUpkeep:
        """The kept terminal view, built from the partition on first read."""
        if self._upkeep is None:
            self._upkeep = _build_upkeep(self)
        return self._upkeep


def _build_upkeep(state: PartitionState) -> ViewUpkeep:
    """Terminal view of the current partition, built anew.

    Only the members of terminal components, the terminals and the absorbed
    nodes, have their neighbours scanned, in any order: the view holds sets
    and `sizes` is a heap of distinct keys.
    """
    instance = state.instance
    members = instance.terminals.union(state.absorbed)
    view: TerminalView = {}
    touching: dict[int, set[int]] = {}
    for u in members:
        root = state.find(u)
        for v in instance.neighbors(u):
            if v not in members:
                view.setdefault(v, set()).add(root)
                touching.setdefault(root, set()).add(v)
    sizes = [(-len(reps), v) for v, reps in view.items()]
    heapq.heapify(sizes)
    return ViewUpkeep(view, touching, sizes)


def _absorb(
    state: PartitionState,
    upkeep: ViewUpkeep,
    terminal_roots: list[int],
    absorbed: list[int],
    root: int,
) -> None:
    """Update the view for a merge into the terminal component `root`.

    Called before the union-find changes.  `terminal_roots` are the merged
    terminal components and `absorbed` the free nodes merged with them.  Only
    the free nodes touching the merged members change: their roots among
    `terminal_roots` give way to `root`.

    When `root` keeps its name (it is one of `terminal_roots`), a node whose
    entry held `root` and no other merged root, and which has no absorbed
    neighbour, keeps its entry as it is.  So only the nodes of the other
    merged roots and the neighbours of absorbed nodes are visited, and they
    are folded into the kept root's `touching` set (small to large).  When
    the merged component takes a free node's id, every set is visited.

    Once `comets` exists, the closed neighbourhood of every visited or
    absorbed node goes into `reshaped`.  No other entry changes, so every
    node outside it sees the same entries around it as before.
    """
    view, touching = upkeep.view, upkeep.touching
    for f in absorbed:
        for k in view.pop(f, ()):
            touching[k].discard(f)
    big = touching.pop(root, set())
    small = [touching.pop(k, set()) for k in terminal_roots if k != root]
    affected: set[int] = set().union(*small)
    instance = state.instance
    flags = state._terminal_flag
    for f in absorbed:
        affected.update(u for u in instance.neighbors(f) if not flags[state.find(u)])
    affected.difference_update(absorbed)
    sizes = upkeep.sizes
    for v in affected:
        reps = view.setdefault(v, set())
        size = len(reps)
        reps.difference_update(terminal_roots)
        reps.add(root)
        if len(reps) != size:
            heapq.heappush(sizes, (-len(reps), v))
    if upkeep.comets is not None:
        reshaped = upkeep.reshaped
        for v in (*absorbed, *affected):
            reshaped.add(v)
            reshaped.update(instance.neighbors(v))
    big |= affected
    touching[root] = big


def edges_to(state: PartitionState, v: int, roots: Iterable[int]) -> tuple[Connection, ...]:
    """The edge from the free node v to each of `roots`, in their order.

    The edge to the terminal component r is `connection(v, u)` for the
    smallest neighbour u of v in r.  Every structure built over the terminal
    view takes its edges from here.
    """
    find = state.find
    nearest: dict[int, int] = {}
    for u in state.instance.neighbors(v):
        nearest.setdefault(find(u), u)
    return tuple(connection(v, nearest[r]) for r in roots)


def induced_graph(state: PartitionState) -> dict[tuple[int, int], Connection]:
    """Terminal component graph: (root, root) -> representative.

    Two terminal components are adjacent iff some instance edge crosses
    them; the stored representative is the lexicographically smallest such
    edge.  Every member of a terminal component is a terminal or an absorbed
    node, so only the edges between two terminals and the edges at absorbed
    nodes are scanned, not the whole instance.
    """
    instance = state.instance
    flags = state._terminal_flag
    find = state.find
    candidates = list(instance.terminal_edges)
    for a in state.absorbed:
        candidates.extend(connection(a, v) for v in instance.neighbors(a))
    edges: dict[tuple[int, int], Connection] = {}
    for u, v in candidates:
        ru, rv = find(u), find(v)
        if ru == rv or not (flags[ru] and flags[rv]):
            continue
        key = (ru, rv) if ru < rv else (rv, ru)
        known = edges.get(key)
        if known is None or (u, v) < known:
            edges[key] = (u, v)
    return edges


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

    state.merge(comps)
    state.connections.extend(conns)
    state.cost += cost(state.instance, conns)
    return state
