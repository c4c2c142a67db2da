"""Greedy star-contraction heuristic over the collapse machinery.

Three steps: collapse terminal-terminal edges, repeatedly collapse a largest
star (stop at s = 2), then chain whatever terminal components remain.  Star
centers are always free non-terminals: `PartitionState.merge` refuses a merge
that joins no terminal component, so a component that contains no terminal
is an original singleton.  Each step takes the `PartitionState` alone and
reads the instance off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from stp12.core import (
    Connection,
    DisjointSets,
    InputError,
    Instance,
    PartitionState,
    Solution,
    collapse,
    connection,
    cost,
    edges_to,
    induced_graph,
)

FINISHING_MODES = ("strict-paper", "cheapest")

CostIndex = Fraction


def cost_index(t: int, c: int) -> CostIndex:
    """Exact rational cost index c/(t-1) - 1 for t terminals and c edges."""
    if t < 2:
        raise InputError(f"cost index needs at least 2 terminals, got t={t}")
    return Fraction(c, t - 1) - 1


@dataclass(frozen=True)
class Fork:
    """A free non-terminal tied to the center and to two terminal components."""

    node: int
    leaves: tuple[int, int]          # the two terminal component roots
    edges: tuple[Connection, Connection, Connection]  # center-fork, fork-leaf x2

    def __post_init__(self):
        if self.leaves[0] == self.leaves[1]:
            raise InputError("fork leaves must be distinct terminal components")


@dataclass(frozen=True)
class Star:
    """A free non-terminal center joined by edges to s distinct terminal
    components and by a forks to two further components each.

    With forks it is a comet (`sixphase.Comet`).  It spans t = 2a + s
    terminal components with c = 3a + s edges, and is ranked by its cost
    index c/(t-1) - 1, the edge overhead per terminal merge.
    """

    center: int
    leaves: tuple[int, ...]          # terminal component roots, ascending
    edges: tuple[Connection, ...]    # one representative edge per leaf
    forks: tuple[Fork, ...] = ()

    @property
    def s(self) -> int:
        return len(self.leaves)

    @property
    def a(self) -> int:
        return len(self.forks)

    @property
    def cost_index(self) -> CostIndex:
        return cost_index(2 * self.a + self.s, 3 * self.a + self.s)

    def touched_components(self) -> tuple[int, ...]:
        return (self.center, *self.leaves,
                *(c for fork in self.forks for c in (fork.node, *fork.leaves)))

    def connections(self) -> tuple[Connection, ...]:
        return (*self.edges, *(e for fork in self.forks for e in fork.edges))


def find_max_star(state: PartitionState, min_s: int) -> Star | None:
    """Largest star in the current component graph, or None if it has fewer
    than `min_s` leaves or there is none.

    Ties go to the smallest center.  The star is read off the state's kept
    terminal view (`PartitionState.view_upkeep`), and its edges off
    `edges_to`.  Callers pass the smallest s they collapse, so a star they
    would reject is never built.
    """
    upkeep = state.view_upkeep()
    center = upkeep.largest()
    if center is None or len(upkeep.view[center]) < min_s:
        return None
    leaves = tuple(sorted(upkeep.view[center]))
    return Star(center, leaves, edges_to(state, center, leaves))


def preprocess_terminal_edges(instance: Instance) -> PartitionState:
    """A new partition of `instance` merged along every terminal-terminal edge.

    The terminal-terminal edges (`Instance.terminal_edges`) are visited
    once, in lexicographic order; after that every such edge lies inside
    one component.  Each edge that joins two components is a one-edge
    spanning tree of them, so it is merged with a direct `union` and
    costs 1.
    """
    state = PartitionState(instance)
    for u, v in instance.terminal_edges:
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
    The state's connections are already priced in `state.cost`, so only
    the connections added here are.
    """
    if mode not in FINISHING_MODES:
        raise InputError(f"unknown finishing mode {mode!r}")
    instance = state.instance
    roots = state.terminal_components()
    if len(roots) <= 1:
        return Solution(frozenset(state.connections), state.cost)

    # Kruskal on the component metric (1 with a representative edge, 2
    # otherwise), which is optimal for two-valued weights.  strict-paper
    # takes no edge, so it chains every component.
    added: list[Connection] = []
    group = DisjointSets(instance.node_count)
    if mode == "cheapest":
        for (a, b), rep in sorted(induced_graph(state).items()):
            if group.union(a, b):
                added.append(rep)
    anchors: dict[int, int] = {}    # each component's smallest terminal
    for t in instance.sorted_terminals:
        anchors.setdefault(state.find(t), t)
    remaining = sorted({group.find(r) for r in roots})
    for a, b in zip(remaining, remaining[1:]):
        added.append(connection(anchors[a], anchors[b]))
    return Solution(frozenset(state.connections + added), state.cost + cost(instance, added))


def rayward_smith(instance: Instance, *, log: list[str] | None = None) -> Solution:
    """Run the three-step greedy and return a valid solution.

    Phase 1 joins every terminal-terminal edge and each star every terminal
    component next to its center, so no edge joins two terminal components
    after the star loop: the strict-paper chain is the cheapest finishing.
    """
    if not instance.terminals:
        raise InputError("rayward_smith needs at least one terminal")
    state = preprocess_terminal_edges(instance)
    if log is not None:
        log.append(f"preprocessing: cost {state.cost}")
    while (star := find_max_star(state, 3)) is not None:
        collapse(state, star.touched_components(), star.connections())
        if log is not None:
            log.append(f"collapse {star.s}-star at {star.center}: cost {state.cost}")
    solution = finishing(state, "strict-paper")
    if log is not None:
        log.append(f"finishing: cost {solution.cost}")
    return solution
