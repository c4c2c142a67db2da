"""Greedy star-contraction heuristic over the collapse machinery.

Three steps: collapse terminal-terminal edges, repeatedly collapse a largest
star (stop at s = 2), then connect whatever terminal components remain.  Star
centers are always free non-terminals: `PartitionState.merge` refuses a merge
that joins no terminal component, so a component that contains no terminal
is an original singleton.  Each step takes the `PartitionState` alone and
reads the instance off it.
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
    edges_to,
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


def find_max_star(state: PartitionState) -> Star | None:
    """Largest star in the current component graph, or None if there is none.

    Ties go to the smallest center.  The star is read off the state's kept
    terminal view (`PartitionState.view_upkeep`), and its edges off
    `edges_to`.
    """
    upkeep = state.view_upkeep()
    center = upkeep.largest()
    if center is None:
        return None
    leaves = tuple(sorted(upkeep.view[center]))
    return Star(center, leaves, edges_to(state, center, leaves))


def preprocess_terminal_edges(state: PartitionState) -> PartitionState:
    """Merge along every edge whose two endpoints are both terminal nodes.

    The terminal-terminal edges are visited once, in lexicographic order;
    after that every such edge lies inside one component.  Each edge that
    joins two components is a one-edge spanning tree of them, so it is
    merged with a direct `union` and costs 1.
    """
    for u, v in state.instance.terminal_edges():
        if state.union(u, v):
            state.connections.append((u, v))
            state.cost += 1
    return state


def finishing(state: PartitionState, mode: str = "cheapest") -> Solution:
    """Connect the remaining terminal components and return the full solution.

    strict-paper chains the components with one connection per gap, chosen
    between their smallest terminal nodes (a non-edge whenever the greedy
    phases ran first).  cheapest spans the components with representative
    edges where available and non-edges otherwise, so it never costs more.
    """
    if mode not in FINISHING_MODES:
        raise InputError(f"unknown finishing mode {mode!r}")
    instance = state.instance
    roots = state.terminal_components()
    conns = list(state.connections)
    if len(roots) <= 1:
        return Solution.from_connections(instance, conns)

    # Kruskal on the component metric (1 with a representative edge, 2
    # otherwise), which is optimal for two-valued weights.  strict-paper
    # takes no edge, so it chains every component.
    group = DisjointSets(instance.node_count)
    if mode == "cheapest":
        for (a, b), rep in sorted(induced_graph(state).items()):
            if group.union(a, b):
                conns.append(rep)
    anchors: dict[int, int] = {}    # each component's smallest terminal
    for t in sorted(instance.terminals):
        anchors.setdefault(state.find(t), t)
    remaining = sorted({group.find(r) for r in roots})
    for a, b in zip(remaining, remaining[1:]):
        conns.append(connection(anchors[a], anchors[b]))
    return Solution.from_connections(instance, conns)


def rayward_smith(
    instance: Instance, mode: str = "cheapest", log: list[str] | None = None
) -> Solution:
    """Run the three-step greedy and return a valid solution."""
    if not instance.terminals:
        raise InputError("rayward_smith needs at least one terminal")
    state = PartitionState(instance)
    preprocess_terminal_edges(state)
    if log is not None:
        log.append(f"preprocessing: cost {state.cost}")
    while True:
        star = find_max_star(state)
        if star is None or star.s <= 2:
            break
        collapse(state, star.touched_components(), star.connections())
        if log is not None:
            log.append(f"collapse {star.s}-star at {star.center}: cost {state.cost}")
    solution = finishing(state, mode)
    if log is not None:
        log.append(f"finishing ({mode}): cost {solution.cost}")
    return solution
