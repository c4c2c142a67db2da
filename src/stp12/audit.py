"""Reference-solution decomposition, classification, and normalization.

A reference solution splits into C-comps (connected components of the graph
formed by its unit-cost edges) and S-comps (maximal edge groups glued through
non-terminal nodes; terminals act as cut points).  Normalization rewrites the
reference with three moves until none applies:

* prune: drop a pendant connection hanging off a non-terminal, and drop
  connection groups in components that contain no terminal at all;
* path step: replace a path of k > 1 edges through degree-2 non-terminals
  by one reconnecting pair (cost change 2 - k for a non-edge reconnection);
* bridge step: cut an edge between two non-terminals and reconnect the two
  sides with a non-edge (cost change +1).

In s4 mode a bridge may only cut where both sides keep at least three edges,
which is what preserves comets: a fork's side has exactly two edges.  After
s3-mode normalization every S-comp is a terminal edge or a proper star;
after s4 mode, a terminal edge, a proper star, or a comet with a + b > 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from stp12.core import (
    Connection,
    ContractViolation,
    DisjointSets,
    InputError,
    Instance,
    connection,
    cost,
    is_valid_solution,
)

NORMALIZE_MODES = ("s3", "s4")


@dataclass(frozen=True)
class ReferenceSolution:
    """A valid connection set under rewriting, usually an exact optimum."""

    connections: frozenset[Connection]

    @classmethod
    def from_connections(cls, connections) -> "ReferenceSolution":
        return cls(frozenset(connection(u, v) for u, v in connections))

    def unit_edges(self, instance: Instance) -> frozenset[Connection]:
        """The subset of connections that are actual graph edges."""
        return frozenset(c for c in self.connections if instance.has_edge(*c))


@dataclass(frozen=True)
class SteinerComponent:
    nodes: frozenset[int]
    edges: frozenset[Connection]
    kind: str                      # terminal-edge | star | comet | other
    params: tuple[int, ...] = ()   # (s,) for stars, (a, b) for comets

    def label(self) -> str:
        if self.kind == "star":
            return f"star({self.params[0]})"
        if self.kind == "comet":
            return f"comet({self.params[0]},{self.params[1]})"
        return self.kind


@dataclass(frozen=True)
class NormalizationStep:
    kind: str                      # prune | junk | path | bridge
    removed: tuple[Connection, ...]
    added: tuple[Connection, ...]
    cost_delta: int


def decompose(
    instance: Instance, reference: ReferenceSolution
) -> tuple[list[SteinerComponent], list[frozenset[int]]]:
    """Split the reference's unit edges into S-comps and C-comps."""
    if not is_valid_solution(instance, reference.connections):
        raise InputError("reference solution is not valid")
    edges = sorted(reference.unit_edges(instance))

    # C-comps: connected components over the unit edges, touched nodes only.
    nodes = DisjointSets(instance.node_count)
    for u, v in edges:
        nodes.union(u, v)
    c_groups: dict[int, set[int]] = {}
    for node in {n for e in edges for n in e}:
        c_groups.setdefault(nodes.find(node), set()).add(node)
    c_comps = sorted((frozenset(g) for g in c_groups.values()), key=min)

    # S-comps: union edges that share a non-terminal endpoint.
    groups = DisjointSets(len(edges))
    incident: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        for node in (u, v):
            if node in instance.terminals:
                continue
            if node in incident:
                groups.union(incident[node], i)
            else:
                incident[node] = i
    s_groups: dict[int, list[Connection]] = {}
    for i, e in enumerate(edges):
        s_groups.setdefault(groups.find(i), []).append(e)
    s_comps = [
        _classify(instance, group) for group in sorted(s_groups.values(), key=min)
    ]
    return s_comps, c_comps


def _classify(instance: Instance, edges: list[Connection]) -> SteinerComponent:
    nodes = frozenset(n for e in edges for n in e)
    edge_set = frozenset(edges)
    non_terminals = sorted(n for n in nodes if n not in instance.terminals)
    terminals = [n for n in nodes if n in instance.terminals]
    degree: dict[int, int] = {}
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    if len(edges) == 1 and not non_terminals:
        return SteinerComponent(nodes, edge_set, "terminal-edge")
    if len(non_terminals) == 1:
        center = non_terminals[0]
        if all(center in e for e in edges):
            return SteinerComponent(nodes, edge_set, "star", (len(edges),))
        return SteinerComponent(nodes, edge_set, "other")
    if len(non_terminals) >= 2 and all(degree[t] == 1 for t in terminals):
        for center in non_terminals:
            others = [f for f in non_terminals if f != center]
            if all(
                degree[f] == 3
                and center in adjacency[f]
                and len(adjacency[f] & set(terminals)) == 2
                for f in others
            ):
                a = len(others)
                b = len(adjacency[center] & set(terminals))
                if degree[center] == a + b and len(edges) == 3 * a + b:
                    return SteinerComponent(nodes, edge_set, "comet", (a, b))
    return SteinerComponent(nodes, edge_set, "other")


def _degrees(reference: ReferenceSolution) -> dict[int, list[int]]:
    adjacency: dict[int, list[int]] = {}
    for u, v in reference.connections:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    return adjacency


def path_step(
    instance: Instance, reference: ReferenceSolution, path: list[int]
) -> ReferenceSolution:
    """Replace a k > 1 edge path by one reconnecting pair of its endpoints.

    Endpoints must be terminals or branch nodes (degree over the whole
    reference above 2); interior nodes must be degree-2 non-terminals whose
    two connections are exactly the path's unit edges.
    """
    if len(path) < 3:
        raise ContractViolation("path step needs k > 1 edges")
    if len(set(path)) != len(path):
        raise ContractViolation("path nodes must be distinct")
    adjacency = _degrees(reference)
    removed = []
    for u, v in zip(path, path[1:]):
        conn = connection(u, v)
        if conn not in reference.connections or not instance.has_edge(u, v):
            raise ContractViolation(f"({u}, {v}) is not a unit edge of the reference")
        removed.append(conn)
    for inner in path[1:-1]:
        if inner in instance.terminals or len(adjacency[inner]) != 2:
            raise ContractViolation(f"interior node {inner} must be a degree-2 non-terminal")
    for end in (path[0], path[-1]):
        if end not in instance.terminals and len(adjacency.get(end, ())) <= 2:
            raise ContractViolation(f"endpoint {end} must be a terminal or branch node")
    remaining = reference.connections - frozenset(removed)
    side_a = _reachable(remaining, path[0])
    if path[-1] in side_a:
        return ReferenceSolution(remaining)
    side_b = _reachable(remaining, path[-1])
    reconnection = _pick_reconnection(
        instance, side_a, side_b, fallback=connection(path[0], path[-1])
    )
    return ReferenceSolution(remaining | {reconnection})


def bridge_step(
    instance: Instance, reference: ReferenceSolution, edge: Connection
) -> ReferenceSolution:
    """Cut a non-terminal to non-terminal unit edge; reconnect with a non-edge."""
    edge = connection(*edge)
    if edge not in reference.connections or not instance.has_edge(*edge):
        raise ContractViolation(f"{edge} is not a unit edge of the reference")
    u, v = edge
    if u in instance.terminals or v in instance.terminals:
        raise ContractViolation("bridge step needs both endpoints non-terminal")
    plan = _bridge_plan(instance, reference, edge)
    if plan is None:
        raise ContractViolation("no non-edge reconnection exists across the cut")
    removed, added = plan
    return ReferenceSolution(reference.connections - {removed} | set(added))


def _bridge_plan(
    instance: Instance, reference: ReferenceSolution, edge: Connection
) -> tuple[Connection, tuple[Connection, ...]] | None:
    """Removal plus the preferred non-edge reconnection, if the cut needs one."""
    u, v = edge
    side_u = _reachable(reference.connections - {edge}, u)
    if v in side_u:
        return edge, ()
    side_v = _reachable(reference.connections - {edge}, v)
    best = _pick_reconnection(instance, side_u, side_v, fallback=None)
    if best is None or instance.has_edge(*best):
        return None
    return edge, (best,)


def _pick_reconnection(
    instance: Instance,
    side_a: set[int],
    side_b: set[int],
    fallback: Connection | None,
) -> Connection | None:
    """Smallest cross pair, preferring terminal-terminal non-edges.

    Anchoring reconnections at terminals keeps non-terminal degrees equal to
    their unit-edge degrees, so later path steps can still dissolve the
    degenerate stars the rewriting leaves behind.
    """
    best_terminal: Connection | None = None
    best_any: Connection | None = None
    for x in side_a:
        for y in side_b:
            if instance.has_edge(x, y):
                continue
            pair = connection(x, y)
            if best_any is None or pair < best_any:
                best_any = pair
            if (
                x in instance.terminals
                and y in instance.terminals
                and (best_terminal is None or pair < best_terminal)
            ):
                best_terminal = pair
    if best_terminal is not None:
        return best_terminal
    if best_any is not None:
        return best_any
    return fallback


def _reachable(connections: frozenset[Connection], start: int) -> set[int]:
    adjacency: dict[int, list[int]] = {}
    for a, b in connections:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for other in adjacency.get(node, ()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def normalize(
    instance: Instance,
    reference: ReferenceSolution,
    mode: str = "s3",
) -> tuple[ReferenceSolution, list[NormalizationStep]]:
    """Apply prune, path, and bridge moves to a fixed point.

    Path steps are exhausted before bridge steps are considered; within one
    kind candidates apply in lexicographic order.  Validity is preserved by
    every move; the trace records each move with its real cost change.
    """
    if mode not in NORMALIZE_MODES:
        raise InputError(f"unknown normalization mode {mode!r}")
    if not is_valid_solution(instance, reference.connections):
        raise InputError("reference solution is not valid")
    current = reference
    trace: list[NormalizationStep] = []
    while True:
        step = (
            _prune_move(instance, current)
            or _path_move(instance, current)
            or _bridge_move(instance, current, mode)
        )
        if step is None:
            return current, trace
        removed, added, kind = step
        delta = cost(instance, added) - cost(instance, removed)
        current = ReferenceSolution(
            current.connections - frozenset(removed) | frozenset(added)
        )
        trace.append(NormalizationStep(kind, tuple(sorted(removed)), tuple(sorted(added)), delta))


def _prune_move(instance, reference):
    adjacency = _degrees(reference)
    # pendant connection at a non-terminal
    for node in sorted(adjacency):
        if node in instance.terminals or len(adjacency[node]) != 1:
            continue
        conn = connection(node, adjacency[node][0])
        return (conn,), (), "prune"
    # connection group in a terminal-free component
    seen: set[int] = set()
    for node in sorted(adjacency):
        if node in seen:
            continue
        component = _reachable(reference.connections, node)
        seen.update(component)
        if not (component & instance.terminals):
            dropped = tuple(sorted(
                c for c in reference.connections if c[0] in component
            ))
            return dropped, (), "junk"
    return None


def _path_move(instance, reference):
    adjacency = _degrees(reference)
    unit = reference.unit_edges(instance)

    def interior(node: int) -> bool:
        return (
            node not in instance.terminals
            and len(adjacency[node]) == 2
            and all(connection(node, o) in unit for o in adjacency[node])
        )

    candidates = []
    visited: set[int] = set()
    for node in sorted(adjacency):
        if node in visited or not interior(node):
            continue
        chain = [node]
        visited.add(node)
        ends = []
        for direction in adjacency[node]:
            prev, here = node, direction
            while interior(here) and here not in visited:
                visited.add(here)
                chain.append(here)
                nxt = [o for o in adjacency[here] if o != prev]
                prev, here = here, nxt[0]
            if interior(here):
                break  # closed cycle of interiors; junk pruning handles it
            ends.append((here, prev))
        if len(ends) != 2:
            continue
        (end_a, before_a), (end_b, before_b) = ends
        if end_a == end_b:
            continue
        path = [end_a]
        prev, here = end_a, before_a
        while here != end_b:
            path.append(here)
            nxt = [o for o in adjacency[here] if o != prev]
            prev, here = here, nxt[0]
        path.append(end_b)

        def valid_end(n: int) -> bool:
            return n in instance.terminals or len(adjacency[n]) > 2

        if valid_end(end_a) and valid_end(end_b) and len(path) >= 3:
            oriented = path if path[0] < path[-1] else list(reversed(path))
            candidates.append(oriented)
    if not candidates:
        return None
    path = min(candidates, key=lambda p: (p[0], p[-1], p))
    removed = tuple(connection(u, v) for u, v in zip(path, path[1:]))
    remaining = reference.connections - frozenset(removed)
    side_a = _reachable(remaining, path[0])
    if path[-1] in side_a:
        return removed, (), "path"
    side_b = _reachable(remaining, path[-1])
    reconnection = _pick_reconnection(
        instance, side_a, side_b, fallback=connection(path[0], path[-1])
    )
    return removed, (reconnection,), "path"


def _bridge_move(instance, reference, mode):
    unit = reference.unit_edges(instance)
    for edge in sorted(unit):
        u, v = edge
        if u in instance.terminals or v in instance.terminals:
            continue
        if mode == "s4" and not _bridge_sides_big_enough(unit, edge):
            continue
        plan = _bridge_plan(instance, reference, edge)
        if plan is None:
            continue
        removed, added = plan
        return (removed,), added, "bridge"
    return None


def _bridge_sides_big_enough(unit: frozenset[Connection], edge: Connection) -> bool:
    """s4 guard: both sides of the cut C-comp must keep >= 3 unit edges."""
    remaining = unit - {edge}
    for endpoint in edge:
        side = _reachable(remaining, endpoint)
        side_edges = sum(1 for c in remaining if c[0] in side and c[1] in side)
        if side_edges < 3:
            return False
    return True
