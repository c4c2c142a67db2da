"""Greedy star-contraction heuristic over the collapse machinery.

Three steps: collapse terminal-terminal edges, repeatedly collapse a largest
star (stop at s = 2), then connect whatever terminal components remain.  Star
centers are always free non-terminals: a component that contains no terminal
is necessarily an original singleton, since every collapse in these
algorithms produces a terminal component.
"""

from __future__ import annotations

from dataclasses import dataclass

from stp12.core import (
    Connection,
    DisjointSets,
    InputError,
    Instance,
    PartitionState,
    Solution,
    collapse,
    connection,
    induced_graph,
)

FINISHING_MODES = ("strict-paper", "cheapest")


@dataclass(frozen=True)
class Star:
    """A free non-terminal center joined by edges to distinct terminal components."""

    center: int
    leaves: tuple[int, ...]          # terminal component roots, ascending
    edges: tuple[Connection, ...]    # one representative edge per leaf

    @property
    def s(self) -> int:
        return len(self.leaves)

    def touched_components(self) -> tuple[int, ...]:
        return (self.center, *self.leaves)

    def connections(self) -> tuple[Connection, ...]:
        return self.edges


def _free_nodes(instance: Instance, state: PartitionState) -> list[int]:
    """Nodes living in terminal-free components (always singletons here)."""
    return [
        v
        for v in range(instance.node_count)
        if not state.is_terminal_component(v)
    ]


def _adjacent_terminal_reps(
    instance: Instance, state: PartitionState, node: int
) -> dict[int, Connection]:
    """Smallest connecting edge from node to each adjacent terminal component."""
    reps: dict[int, Connection] = {}
    for v in instance.neighbors(node):
        root = state.find(v)
        if not state.is_terminal_component(root):
            continue
        rep = connection(node, v)
        old = reps.get(root)
        if old is None or rep < old:
            reps[root] = rep
    return reps


def find_max_star(instance: Instance, state: PartitionState) -> Star | None:
    """Largest star in the current component graph.

    Ties go to the smallest center id, then the lexicographically smallest
    leaf list.  Returns None when no free non-terminal touches a terminal
    component.
    """
    best: tuple[int, int, tuple[int, ...]] | None = None
    best_reps: dict[int, Connection] | None = None
    for center in _free_nodes(instance, state):
        reps = _adjacent_terminal_reps(instance, state, center)
        if not reps:
            continue
        key = (-len(reps), center, tuple(sorted(reps)))
        if best is None or key < best:
            best = key
            best_reps = reps
    if best is None or best_reps is None:
        return None
    _, center, leaves = best
    edges = tuple(best_reps[r] for r in leaves)
    return Star(center, leaves, edges)


def preprocess_terminal_edges(instance: Instance, state: PartitionState) -> PartitionState:
    """Collapse every edge whose two endpoints are both terminal nodes."""
    changed = True
    while changed:
        changed = False
        for u, v in instance.edges():
            if u not in instance.terminals or v not in instance.terminals:
                continue
            ru, rv = state.find(u), state.find(v)
            if ru != rv:
                collapse(state, (ru, rv), ((u, v),))
                changed = True
    return state


def finishing(instance: Instance, state: PartitionState, mode: str = "cheapest") -> Solution:
    """Connect the remaining terminal components and return the full solution.

    strict-paper chains the components with one connection per gap, chosen
    between their smallest terminal nodes (a non-edge whenever the greedy
    phases ran first).  cheapest spans the components with representative
    edges where available and non-edges otherwise, so it never costs more.
    """
    if mode not in FINISHING_MODES:
        raise InputError(f"unknown finishing mode {mode!r}")
    roots = state.terminal_components()
    conns = list(state.connections)
    if len(roots) <= 1:
        return Solution.from_connections(instance, conns)

    anchors = _smallest_terminal_per_component(instance, state, roots)
    if mode == "strict-paper":
        for a, b in zip(roots, roots[1:]):
            conns.append(connection(anchors[a], anchors[b]))
        return Solution.from_connections(instance, conns)

    # cheapest: Kruskal on the component metric (1 with a representative
    # edge, 2 otherwise), which is optimal for two-valued weights.
    wanted = set(roots)
    group = DisjointSets(instance.node_count)
    merged = 0
    cg = induced_graph(instance, state)
    for (a, b), rep in sorted(cg.edges.items()):
        if a in wanted and b in wanted and group.union(a, b):
            conns.append(connection(*rep))
            merged += 1
    if merged < len(roots) - 1:
        remaining = sorted({group.find(r) for r in roots})
        for a, b in zip(remaining, remaining[1:]):
            conns.append(connection(anchors[a], anchors[b]))
    return Solution.from_connections(instance, conns)


def _smallest_terminal_per_component(
    instance: Instance, state: PartitionState, roots: list[int]
) -> dict[int, int]:
    anchors: dict[int, int] = {}
    wanted = set(roots)
    for t in sorted(instance.terminals):
        root = state.find(t)
        if root in wanted and root not in anchors:
            anchors[root] = t
    return anchors


def rayward_smith(
    instance: Instance, mode: str = "cheapest", log: list[str] | None = None
) -> Solution:
    """Run the three-step greedy and return a valid solution."""
    if not instance.terminals:
        raise InputError("rayward_smith needs at least one terminal")
    state = PartitionState(instance)
    preprocess_terminal_edges(instance, state)
    if log is not None:
        log.append(f"preprocessing: cost {state.cost}")
    while True:
        star = find_max_star(instance, state)
        if star is None or star.s <= 2:
            break
        collapse(state, star.touched_components(), star.connections())
        if log is not None:
            log.append(f"collapse {star.s}-star at {star.center}: cost {state.cost}")
    solution = finishing(instance, state, mode)
    if log is not None:
        log.append(f"finishing ({mode}): cost {solution.cost}")
    return solution
