"""Maximum-cardinality matching in general graphs.

The comet search reduces fork selection to a matching problem on an auxiliary
graph whose vertices are terminal components and whose edges are pairs that
some fork node can serve.  That graph is not bipartite, so augmenting paths
must contract odd cycles (blossoms); the implementation below is the classic
O(V^3) scheme with base pointers and LCA-driven blossom marking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from stp12.core import InputError


@dataclass(frozen=True)
class AuxGraph:
    """Auxiliary graph for a fixed comet center.

    Vertices are terminal component ids; edges are the component pairs some
    fork node can serve, each stored once as (smaller, larger) in ascending
    order.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...] = ()

    @classmethod
    def build(cls, pairs: Iterable[tuple[int, int]]) -> "AuxGraph":
        edges: set[tuple[int, int]] = set()
        for a, b in pairs:
            if a == b:
                raise InputError("auxiliary edge endpoints must differ")
            edges.add((a, b) if a < b else (b, a))
        verts = {v for edge in edges for v in edge}
        return cls(tuple(sorted(verts)), tuple(sorted(edges)))


@dataclass(frozen=True)
class Matching:
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        seen: set[int] = set()
        for a, b in self.pairs:
            if a in seen or b in seen or a == b:
                raise InputError("matching edges must be vertex-disjoint")
            seen.update((a, b))

    def __len__(self) -> int:
        return len(self.pairs)


def max_matching(graph: AuxGraph) -> Matching:
    """Maximum-cardinality matching of an AuxGraph; deterministic for fixed input."""
    verts = list(graph.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in sorted(graph.edges):
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    mate = _max_matching_indices(n, adj)
    pairs = frozenset(
        (verts[i], verts[mate[i]]) for i in range(n) if mate[i] > i
    )
    return Matching(pairs)


def _max_matching_indices(n: int, adj: list[list[int]]) -> list[int]:
    """Blossom algorithm on an indexed adjacency list; returns mate[] with -1 free."""
    mate = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        v = a
        while True:
            v = base[v]
            seen[v] = True
            if mate[v] == -1:
                break
            v = parent[mate[v]]
        v = b
        while True:
            v = base[v]
            if seen[v]:
                return v
            v = parent[mate[v]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting_path(root: int) -> int:
        for i in range(n):
            parent[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # Odd cycle: contract the blossom around the common base.
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        return to
                    used[mate[to]] = True
                    queue.append(mate[to])
        return -1

    for v in range(n):
        if mate[v] == -1:
            end = find_augmenting_path(v)
            while end != -1:
                prev = parent[end]
                next_end = mate[prev]
                mate[end] = prev
                mate[prev] = end
                end = next_end
    return mate
