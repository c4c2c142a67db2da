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
s3-mode normalization every S-comp is a terminal edge or a star, and a
star of s <= 2 has its center at an end of a non-edge connection, so no
path move runs through it (comet chains of two gadgets leave such stars);
after s4 mode, a terminal edge, a proper star (s >= 3), or a comet with
a + b > 2.
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
    adjacency = _degrees(edges)
    non_terminals = sorted(nodes - instance.terminals)

    def terminal_neighbours(node: int) -> int:
        return sum(other in instance.terminals for other in adjacency[node])

    if len(edges) == 1 and not non_terminals:
        return SteinerComponent(nodes, edge_set, "terminal-edge")
    if len(non_terminals) == 1:
        center = non_terminals[0]
        if all(center in e for e in edges):
            return SteinerComponent(nodes, edge_set, "star", (len(edges),))
        return SteinerComponent(nodes, edge_set, "other")
    if len(non_terminals) >= 2 and all(len(adjacency[t]) == 1 for t in nodes & instance.terminals):
        for center in non_terminals:
            others = [f for f in non_terminals if f != center]
            if all(
                len(adjacency[f]) == 3
                and center in adjacency[f]
                and terminal_neighbours(f) == 2
                for f in others
            ):
                a = len(others)
                b = terminal_neighbours(center)
                if len(adjacency[center]) == a + b and len(edges) == 3 * a + b:
                    return SteinerComponent(nodes, edge_set, "comet", (a, b))
    return SteinerComponent(nodes, edge_set, "other")


def _degrees(connections) -> dict[int, list[int]]:
    """Each touched node's neighbours over a connection set."""
    adjacency: dict[int, list[int]] = {}
    for u, v in connections:
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
    adjacency = _degrees(reference.connections)
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
    return _reconnect(instance, remaining, path[0], path[-1], required=False)


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
    remaining = reference.connections - {edge}
    return _reconnect(instance, remaining, u, v, required=True)


def _reconnect(instance, remaining, a, b, required):
    """Rejoin a and b after a cut, unless `remaining` still joins them.

    Adds the smallest cross non-edge, preferring one between two terminals:
    anchoring reconnections at terminals keeps non-terminal degrees equal to
    their unit-edge degrees, so later path steps can still dissolve the
    degenerate stars the rewriting leaves behind.  With no cross non-edge a
    `required` reconnection is refused; otherwise (a, b) itself is added.
    """
    adjacency = _degrees(remaining)
    side_a = _reachable(adjacency, a)
    if b in side_a:
        return ReferenceSolution(remaining)
    side_b = _reachable(adjacency, b)
    cross = (connection(x, y) for x in side_a for y in side_b if not instance.has_edge(x, y))
    best = min(cross, key=lambda c: (not instance.terminals.issuperset(c), c), default=None)
    if best is None:
        if required:
            raise ContractViolation("no non-edge reconnection exists across the cut")
        best = connection(a, b)
    return ReferenceSolution(remaining | {best})


def _reachable(adjacency: dict[int, list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for other in adjacency.get(stack.pop(), ()):
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
        step = _prune_move(instance, current)
        if step is None:
            path = _path_move(instance, current)
            if path is not None:
                step = "path", path_step(instance, current, path)
        if step is None:
            step = _bridge_move(instance, current, mode)
        if step is None:
            return current, trace
        kind, after = step
        removed = current.connections - after.connections
        added = after.connections - current.connections
        delta = cost(instance, added) - cost(instance, removed)
        trace.append(NormalizationStep(kind, tuple(sorted(removed)), tuple(sorted(added)), delta))
        current = after


def _prune_move(instance, reference):
    adjacency = _degrees(reference.connections)
    # pendant connection at a non-terminal
    for node in sorted(adjacency):
        if node in instance.terminals or len(adjacency[node]) != 1:
            continue
        conn = connection(node, adjacency[node][0])
        return "prune", ReferenceSolution(reference.connections - {conn})
    # connection group in a terminal-free component
    seen: set[int] = set()
    for node in sorted(adjacency):
        if node in seen:
            continue
        component = _reachable(adjacency, node)
        seen.update(component)
        if not (component & instance.terminals):
            kept = frozenset(c for c in reference.connections if c[0] not in component)
            return "junk", ReferenceSolution(kept)
    return None


def _path_move(instance, reference):
    """The least path of k > 1 unit edges through degree-2 non-terminals.

    Each path is walked from both of its ends, the terminals and the nodes
    of reference degree above 2, and oriented from its smaller end; the
    least by (first end, last end, path) is returned, or None.
    """
    adjacency = _degrees(reference.connections)
    unit = reference.unit_edges(instance)

    def interior(node: int) -> bool:
        return (
            node not in instance.terminals
            and len(adjacency[node]) == 2
            and all(connection(node, o) in unit for o in adjacency[node])
        )

    def valid_end(node: int) -> bool:
        return node in instance.terminals or len(adjacency[node]) > 2

    candidates = []
    for end in filter(valid_end, adjacency):
        for here in adjacency[end]:
            path = [end]
            while interior(here):
                path.append(here)
                here = next(o for o in adjacency[here] if o != path[-2])
            if len(path) > 1 and here != end and valid_end(here):
                path.append(here)
                candidates.append(path if path[0] < path[-1] else path[::-1])
    return min(candidates, key=lambda p: (p[0], p[-1], p), default=None)


def _bridge_move(instance, reference, mode):
    unit = reference.unit_edges(instance)
    for edge in sorted(unit):
        u, v = edge
        if u in instance.terminals or v in instance.terminals:
            continue
        if mode == "s4" and not _bridge_sides_big_enough(unit, edge):
            continue
        try:
            return "bridge", bridge_step(instance, reference, edge)
        except ContractViolation:
            continue  # no non-edge reconnection across this cut
    return None


def _bridge_sides_big_enough(unit: frozenset[Connection], edge: Connection) -> bool:
    """s4 guard: both sides of the cut C-comp must keep >= 3 unit edges."""
    adjacency = _degrees(unit - {edge})
    for endpoint in edge:
        side = _reachable(adjacency, endpoint)
        if sum(len(adjacency.get(n, ())) for n in side) < 6:  # each edge twice
            return False
    return True
