"""The six-phase algorithm: star phases, 3-star packing, and comet collapses.

A comet generalizes a star: a free non-terminal center carries b directly
attached terminal components plus a fork nodes, each fork being a free
non-terminal adjacent to the center and to two further terminal components.
A comet with a forks and b direct terminals spans t = 2a + b terminal
components using c = 3a + b edges; its cost index c/(t-1) - 1 measures the
edge overhead per terminal merge, with a plain non-edge merge sitting at
exactly 1.  The six phases:

1. collapse terminal-terminal edges
2. greedily collapse stars with s > 4
3. greedily collapse stars with s >= 4 (new large stars can appear mid-phase)
4. select a maximum-size set of disjoint 3-stars; after phases 2-3 a
   center holds at most 3 terminal components, so it offers one 3-star
5. upgrade selected 3-stars to (1,3)-comets where a free fork exists,
   then collapse the selection
6. repeatedly collapse the structure with the least cost index while it is
   below 1, then finish like the greedy heuristic.  `best_comet` looks
   only among structures with index below 1: stars of s >= 3, and comets
   with a + b >= 3.  A center with b direct components and m neighbours
   whose entry holds two or more roots has a <= m, so it is not scored
   when b + m < 3.

Phases 2 and 3 run as one loop that collapses a largest star while s >= 4.
Both phases always take a largest star, so phase 2 is exactly the run of
that loop before its first 4-star, and phase 3 the rest; the collapse
sequence is the same as running them one after the other.  Star sizes can
grow mid-loop (a free neighbour of a collapsed center now touches the
merged component), so a 5-star after the first 4-star is still phase 3,
and the log labels it that way.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from stp12.core import (
    CapExceeded,
    Connection,
    ContractViolation,
    InputError,
    Instance,
    PartitionState,
    Solution,
    TerminalView,
    collapse,
    connection,
    edges_to,
)
from stp12.heuristics import Star, find_max_star, finishing, preprocess_terminal_edges
from stp12.matching import AuxGraph, max_matching

PACK3_STRATEGIES = ("exact", "greedy")
DEFAULT_PACK3_CAP = 512

CostIndex = Fraction


def cost_index(t: int, c: int) -> CostIndex:
    """Exact rational cost index c/(t-1) - 1 for t terminals and c edges."""
    if t < 2:
        raise InputError(f"cost index needs at least 2 terminals, got t={t}")
    return Fraction(c, t - 1) - 1


def star_cost_index(s: int) -> CostIndex:
    """Cost index of an s-star computed from its counts (t = s, c = s)."""
    return cost_index(s, s)


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
class Comet:
    """A center with a forks and b directly attached terminal components."""

    center: int
    directs: tuple[int, ...]         # terminal component roots, ascending
    direct_edges: tuple[Connection, ...]
    forks: tuple[Fork, ...]

    def __post_init__(self):
        comps = list(self.directs)
        nodes = [self.center]
        for fork in self.forks:
            comps.extend(fork.leaves)
            nodes.append(fork.node)
        if len(set(comps)) != len(comps):
            raise InputError("comet terminal components must be distinct")
        if len(set(nodes)) != len(nodes):
            raise InputError("comet fork nodes must be distinct from each other and the center")

    @property
    def a(self) -> int:
        return len(self.forks)

    @property
    def b(self) -> int:
        return len(self.directs)

    @property
    def terminal_count(self) -> int:
        return 2 * self.a + self.b

    @property
    def edge_count(self) -> int:
        return 3 * self.a + self.b

    @property
    def cost_index(self) -> CostIndex:
        return cost_index(self.terminal_count, self.edge_count)

    def touched_components(self) -> tuple[int, ...]:
        comps = [self.center]
        comps.extend(self.directs)
        for fork in self.forks:
            comps.append(fork.node)
            comps.extend(fork.leaves)
        return tuple(comps)

    def connections(self) -> tuple[Connection, ...]:
        conns = list(self.direct_edges)
        for fork in self.forks:
            conns.extend(fork.edges)
        return tuple(conns)


def structure_cost_index(structure: Star | Comet) -> CostIndex:
    if isinstance(structure, Star):
        return star_cost_index(structure.s)
    return structure.cost_index


def build_fork_candidates(
    instance: Instance, view: TerminalView, center: int
) -> dict[tuple[int, int], list[int]]:
    """Map each servable terminal-component pair to the fork nodes realizing it.

    A fork node must be a free non-terminal adjacent to the center; pairs may
    not touch components already attached directly to the center.  Returns
    no pair at all (no comet) when a neighbour's entry holds more than 3
    roots, which `best_comet`'s calls never meet; see `_comet_pairs`.
    """
    directs = view.get(center, set())
    pair_forks: dict[tuple[int, int], list[int]] = {}
    for f in instance.neighbors(center):
        reps = view.get(f)
        if reps is None or len(reps) < 2:
            continue
        if len(reps) > 3:
            return {}
        for pair in combinations(sorted(reps.difference(directs)), 2):
            pair_forks.setdefault(pair, []).append(f)
    return pair_forks


def best_comet(state: PartitionState) -> Star | Comet | None:
    """Structure with the least cost index among those below 1, or None.

    Phase 6 collapses only structures whose cost index is below 1, so no
    other is looked for.  A star with s >= 3 has cost index 1/(s-1) <= 1/2
    and a 2-star index 1, so the largest star is the only star that counts.
    For centers with at most two direct components, forks are maximized
    through a maximum matching on the fork-servable pairs; a comet with a
    forks and b directs has index (a+1)/(2a+b-1), below 1 exactly when
    a + b >= 3.  Ties break on more terminals, then smaller center id.

    Comets are scored only when one can win.  Every comet `_comet_at`
    returns has a >= 1 and b <= 2, so index (a+1)/(2a+b-1) > 1/2.  So
    while the largest star has s >= 3 it is returned before any comet is
    scored.  Until the first scoring no comet cache exists, so merges mark
    no centers; after it, the centers reshaped meanwhile wait in `reshaped`
    and are scored together when a comet can next win.  A key depends only
    on the entries around its center when it is scored, so scoring later
    gives the same keys.
    """
    star = find_max_star(state)
    if star is not None and star.s >= 3:
        return star
    best = _best_comet_key(state)
    return None if best is None else _comet_at(state, best[2])


def _best_comet_key(state: PartitionState) -> tuple | None:
    """Sort key of the best comet of cost index below 1, after scoring as needed.

    A center's best comet depends only on the view entries of the center and
    its neighbours, and its sort key (cost index, terminal count) only on
    its shape (a, b), which `_comet_shape` reads off those entries without
    building the comet.  So each center's key is kept with the view and
    scored again only when a merge changed, added or removed the entry of
    the center or of a neighbour, which puts the center in `reshaped`, or
    the center is no longer free.  Only keys of shapes with a + b >= 3
    (index below 1) are kept.  The best kept key is read off a lazy heap
    of the keys; `best_comet` builds the comet of the winning center alone.

    A fork node's entry holds two or more roots, and at most 3 (or the
    center gets no comet), so it serves at most one matched pair: a <= m,
    the center's neighbours whose entry holds two or more roots.  So a
    center with b + m < 3 is not scored.
    """
    instance = state.instance
    upkeep = state.view_upkeep()
    view, keys = upkeep.view, upkeep.comet_keys
    comets = upkeep.comets
    if comets is None:
        # Only a free node next to a fork can be a center, also one with no
        # direct terminal component: a (3,0)-comet has cost index 4/5.
        comets = upkeep.comets = {}
        fork_counts = Counter(c for f, reps in view.items() if len(reps) >= 2
                              for c in instance.neighbors(f))
    else:
        fork_counts = {c: len([f for f in instance.neighbors(c) if len(view.get(f, ())) >= 2])
                       for c in upkeep.reshaped}
    upkeep.reshaped.clear()
    for center, m in fork_counts.items():
        comets.pop(center, None)
        if m + len(view.get(center, ())) < 3 or state.is_terminal_component(center):
            continue
        shape = _comet_shape(instance, view, center)
        if shape is not None and sum(shape) >= 3:
            key = (*_shape_key(*shape), center)
            comets[center] = key
            heapq.heappush(keys, key)
    # A key that is not the one kept for its center was scored again or is gone.
    while keys and comets.get(keys[0][2]) is not keys[0]:
        heapq.heappop(keys)
    return keys[0] if keys else None


@cache
def _shape_key(a: int, b: int) -> tuple[CostIndex, int]:
    """(cost index, -terminal count) of every comet with a forks and b directs."""
    return cost_index(2 * a + b, 3 * a + b), -(2 * a + b)


def _comet_pairs(
    instance: Instance, view: TerminalView, center: int
) -> tuple[set[int], dict[tuple[int, int], list[int]]] | None:
    """The center's direct roots and fork-servable pairs, or None if it has no comet.

    A center with more than two directs, or with no pair a fork can serve,
    gets no comet; `_comet_shape` and `_comet_at` both start here.

    `six_phase` never reaches this guard or the decline in
    `build_fork_candidates` beside an entry of more than 3 roots: it scores
    comets only once no star of s >= 3 stands.  Both stay so that the two
    callers give an answer on any partition state, as the fresh scorings
    of the tests do beside such a star.
    """
    directs = view.get(center, set())
    if len(directs) > 2:
        return None
    pair_forks = build_fork_candidates(instance, view, center)
    if not pair_forks:
        return None
    return directs, pair_forks


def _comet_shape(instance: Instance, view: TerminalView, center: int) -> tuple[int, int] | None:
    """(a, b) of the comet `_comet_at` builds at center, or None if it builds none.

    b counts the center's direct components and a is the size of a maximum
    matching of the fork-servable pairs.  When those pairs are pairwise
    disjoint (one pair, most often), they are the matching and none is run.
    """
    found = _comet_pairs(instance, view, center)
    if found is None:
        return None
    directs, pairs = found
    if len({root for pair in pairs for root in pair}) == 2 * len(pairs):
        a = len(pairs)
    else:
        a = len(max_matching(AuxGraph.build(pairs)))
    return a, len(directs)


def _comet_at(state: PartitionState, center: int) -> Comet | None:
    """Comet with the most forks at a free center with at most two directs.

    The forks are a maximum matching of the fork-servable pairs, each pair
    served by its first fork node; every edge comes from `edges_to`.
    `best_comet` builds it only at the center whose shape (`_comet_shape`)
    wins, and only when no star of s >= 3 stands, so every entry holds at
    most two roots and each fork node serves at most one pair.  Called on
    any other state, as a fresh scoring beside such a star may be, it gives
    no comet to a center next to an entry of 4 or more roots, and with
    every entry at 3 roots or fewer the pairs one fork node serves share
    roots pairwise, so matched pairs, being disjoint, still get distinct
    forks.
    """
    found = _comet_pairs(state.instance, state.view_upkeep().view, center)
    if found is None:
        return None
    roots, pair_forks = found
    forks = []
    for pair in sorted(max_matching(AuxGraph.build(pair_forks)).pairs):
        f = pair_forks[pair][0]
        edges = (connection(center, f), *edges_to(state, f, pair))
        forks.append(Fork(node=f, leaves=pair, edges=edges))
    directs = tuple(sorted(roots))
    return Comet(
        center=center,
        directs=directs,
        direct_edges=edges_to(state, center, directs),
        forks=tuple(forks),
    )


def max_3star_set(state: PartitionState, strategy: str = "exact") -> tuple[Star, ...]:
    """Maximum-size set of 3-stars disjoint on centers and terminal components.

    `six_phase` packs once phases 2-3 have collapsed every star with s >= 4,
    so the candidates are one per center whose entry holds 3 roots: its
    sorted root triple, in center order.  An entry of 4 or more roots is
    refused with ContractViolation.  Both strategies first take, in order,
    each triple disjoint from those already taken.  That first fit is the
    greedy packing; it is also the first leaf of the exact search, which
    takes a triple before it skips it and keeps a packing only when it is
    strictly larger, pruning a subtree when the triples left in it cannot
    beat the best.  So the exact strategy returns the maximum packing whose
    index list is lexicographically smallest.  It refuses more than
    DEFAULT_PACK3_CAP triples, and the caller should fall back to the greedy.
    """
    if strategy not in PACK3_STRATEGIES:
        raise InputError(f"unknown 3-star strategy {strategy!r}")
    view = state.view_upkeep().view
    # The view keeps no center order; both packings depend on this one.
    centers = sorted(center for center, reps in view.items() if len(reps) >= 3)
    if not centers:
        return ()
    triples = []
    for center in centers:
        if len(view[center]) > 3:
            raise ContractViolation(f"3-star packing met a {len(view[center])}-star at {center}")
        triples.append(tuple(sorted(view[center])))
    if strategy == "exact" and len(triples) > DEFAULT_PACK3_CAP:
        raise CapExceeded(
            f"3-star packing has {len(triples)} candidates > cap {DEFAULT_PACK3_CAP}; "
            "use the greedy strategy"
        )

    best: list[int] = []
    used_comps: set[int] = set()
    for i, triple in enumerate(triples):
        if used_comps.isdisjoint(triple):
            best.append(i)
            used_comps.update(triple)

    def search(i: int, used_comps: set[int], picked: list[int]) -> None:
        nonlocal best
        if len(picked) > len(best):
            best = list(picked)
        if len(picked) + len(triples) - i <= len(best):
            return
        if used_comps.isdisjoint(triples[i]):
            picked.append(i)
            search(i + 1, used_comps.union(triples[i]), picked)
            picked.pop()
        search(i + 1, used_comps, picked)

    if strategy == "exact":
        search(0, set(), [])
    return tuple(Star(centers[i], triples[i], edges_to(state, centers[i], triples[i]))
                 for i in best)


def upgrade_to_comets(
    state: PartitionState, selected: tuple[Star, ...]
) -> tuple[Star | Comet, ...]:
    """Replace selected 3-stars by (1,3)-comets wherever a free fork exists.

    Scans the selection in center order; a fork must be a free non-terminal
    adjacent to the star's center and to two terminal components untouched by
    the current selection, and each fork node is used at most once.
    """
    ordered = sorted(selected, key=lambda star: star.center)
    used_comps: set[int] = set()
    for star in ordered:
        used_comps.update(star.leaves)
    blocked_nodes = {star.center for star in ordered}
    result: list[Star | Comet] = []
    for star in ordered:
        fork = _find_free_fork(state, star.center, used_comps, blocked_nodes)
        if fork is None:
            result.append(star)
            continue
        used_comps.update(fork.leaves)
        blocked_nodes.add(fork.node)
        result.append(
            Comet(
                center=star.center,
                directs=star.leaves,
                direct_edges=star.edges,
                forks=(fork,),
            )
        )
    return tuple(result)


def _find_free_fork(
    state: PartitionState, center: int, used_comps: set[int], blocked_nodes: set[int]
) -> Fork | None:
    view = state.view_upkeep().view
    for f in state.instance.neighbors(center):
        if f in blocked_nodes or f not in view:
            continue
        fresh = sorted(root for root in view[f] if root not in used_comps)
        if len(fresh) >= 2:
            pair = (fresh[0], fresh[1])
            edges = (connection(center, f), *edges_to(state, f, pair))
            return Fork(node=f, leaves=pair, edges=edges)
    return None


def six_phase(
    instance: Instance,
    mode: str = "cheapest",
    pack3: str = "exact",
    log: list[str] | None = None,
) -> Solution:
    """Run all six phases and return a valid solution.

    Log lines are only built when a `log` is passed.
    """
    if not instance.terminals:
        raise InputError("six_phase needs at least one terminal")

    state = PartitionState(instance)
    preprocess_terminal_edges(state)
    if log is not None:
        log.append(f"phase 1 terminal edges: cost {state.cost}")

    phase = 2
    while True:
        star = find_max_star(state)
        if star is None or star.s < 4:
            break
        if star.s == 4:
            phase = 3
        collapse(state, star.touched_components(), star.connections())
        if log is not None:
            log.append(f"phase {phase} collapse {star.s}-star at {star.center}: cost {state.cost}")

    selected = max_3star_set(state, pack3)
    if log is not None:
        log.append(f"phase 4 packed {len(selected)} disjoint 3-stars ({pack3})")

    upgraded = upgrade_to_comets(state, selected)
    for structure in upgraded:
        collapse(state, structure.touched_components(), structure.connections())
    if log is not None:
        comet_count = sum(1 for s in upgraded if isinstance(s, Comet))
        log.append(f"phase 5 upgraded {comet_count} to (1,3)-comets: cost {state.cost}")

    while (structure := best_comet(state)) is not None:
        collapse(state, structure.touched_components(), structure.connections())
        if log is not None:
            kind = "star" if isinstance(structure, Star) else "comet"
            ci = structure_cost_index(structure)
            log.append(f"phase 6 collapse {kind} ci={ci}: cost {state.cost}")

    solution = finishing(state, mode)
    if log is not None:
        log.append(f"finishing ({mode}): cost {solution.cost}")
    return solution
