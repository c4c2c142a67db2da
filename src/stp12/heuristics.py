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
    TerminalView,
    ViewUpkeep,
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


def terminal_view(instance: Instance, state: PartitionState) -> TerminalView:
    """The terminal components each free node touches, keyed by free node.

    Every star and comet search reads this view: free node -> {terminal
    component root: smallest edge joining them}.  Free nodes touching no
    terminal component are left out.  The state builds it on the first read
    and keeps it current through every later merge, so it must not be
    changed by its readers; its centers are in no particular order.
    """
    return state.view_upkeep().view


def largest_star(upkeep: ViewUpkeep) -> Star | None:
    """Largest star in the kept view; ties go to the smallest center."""
    center = upkeep.largest()
    if center is None:
        return None
    reps = upkeep.view[center]
    leaves = tuple(sorted(reps))
    return Star(center, leaves, tuple(reps[r] for r in leaves))


def find_max_star(instance: Instance, state: PartitionState) -> Star | None:
    """Largest star in the current component graph, or None if there is none."""
    return largest_star(state.view_upkeep())


def preprocess_terminal_edges(instance: Instance, state: PartitionState) -> PartitionState:
    """Collapse every edge whose two endpoints are both terminal nodes.

    The terminal-terminal edges are visited once, in lexicographic order;
    after that every such edge lies inside one component.
    """
    terminal_mask = 0
    for t in instance.terminals:
        terminal_mask |= 1 << t
    for u in sorted(instance.terminals):
        # terminal neighbours above u; bit i stands for u + 1 + i
        above = (instance.adjacency[u] & terminal_mask) >> (u + 1)
        while above:
            low = above & -above
            v = u + low.bit_length()
            above ^= low
            ru, rv = state.find(u), state.find(v)
            if ru != rv:
                collapse(state, (ru, rv), ((u, v),))
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
    between = [(key, rep) for key, rep in cg.edges.items()
               if key[0] in wanted and key[1] in wanted]
    for (a, b), rep in sorted(between):
        if group.union(a, b):
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
