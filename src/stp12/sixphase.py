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
4. select a maximum-size set of disjoint 3-stars
5. upgrade selected 3-stars to (1,3)-comets where a free fork exists,
   then collapse the selection
6. repeatedly collapse the structure with the least cost index while it is
   below 1, then finish like the greedy heuristic

Phases 2 and 3 run as one loop that collapses a largest star while s >= 4.
Both phases always take a largest star, so phase 2 is exactly the run of
that loop before its first 4-star, and phase 3 the rest; the collapse
sequence is the same as running them one after the other.  Star sizes can
grow mid-loop (a free neighbour of a collapsed center now touches the
merged component), so a 5-star after the first 4-star is still phase 3,
and the log labels it that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from stp12.core import (
    CapExceeded,
    Connection,
    InputError,
    Instance,
    PartitionState,
    Solution,
    collapse,
    connection,
)
from stp12.heuristics import (
    Star,
    _adjacent_terminal_reps,
    _free_nodes,
    find_max_star,
    finishing,
    preprocess_terminal_edges,
)

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


def _terminal_count(structure: Star | Comet) -> int:
    return structure.s if isinstance(structure, Star) else structure.terminal_count


def build_fork_candidates(
    instance: Instance, state: PartitionState, center: int, directs: set[int]
) -> dict[tuple[int, int], list[int]]:
    """Map each servable terminal-component pair to the fork nodes realizing it.

    A fork node must be a free non-terminal adjacent to the center; pairs may
    not touch components already attached directly to the center.
    """
    pair_forks: dict[tuple[int, int], list[int]] = {}
    for f in instance.neighbors(center):
        if state.is_terminal_component(f):
            continue
        leaves = sorted(
            root for root in _adjacent_terminal_reps(instance, state, f)
            if root not in directs
        )
        for pair in combinations(leaves, 2):
            pair_forks.setdefault(pair, []).append(f)
    return pair_forks


def _assign_forks(
    pair_forks: dict[tuple[int, int], list[int]],
    pairs: list[tuple[int, int]],
) -> list[tuple[tuple[int, int], int]] | None:
    """Give each matched pair its own fork node, or None if impossible.

    Bipartite augmenting paths over pair -> fork candidates; one physical
    fork node may appear in several auxiliary edges but serves at most one.
    """
    owner: dict[int, int] = {}

    def try_assign(i: int, banned: set[int]) -> bool:
        for f in pair_forks[pairs[i]]:
            if f in banned:
                continue
            banned.add(f)
            if f not in owner or try_assign(owner[f], banned):
                owner[f] = i
                return True
        return False

    for i in range(len(pairs)):
        if not try_assign(i, set()):
            return None
    chosen = {i: f for f, i in owner.items()}
    return [(pairs[i], chosen[i]) for i in range(len(pairs))]


def _max_fork_set(
    pair_forks: dict[tuple[int, int], list[int]],
) -> list[tuple[tuple[int, int], int]]:
    """Exact maximum set of component-disjoint pairs with distinct fork nodes.

    Fallback for the rare case where the vertex matching cannot be realized
    because too few physical fork nodes exist; exhaustive at desk scale.
    """
    candidates = sorted(
        (pair, f) for pair, forks in pair_forks.items() for f in forks
    )
    best: list[tuple[tuple[int, int], int]] = []

    def search(i: int, used_comps: set[int], used_forks: set[int],
               picked: list[tuple[tuple[int, int], int]]) -> None:
        nonlocal best
        if len(picked) > len(best):
            best = list(picked)
        if i == len(candidates) or len(picked) + (len(candidates) - i) <= len(best):
            return
        pair, f = candidates[i]
        if f not in used_forks and pair[0] not in used_comps and pair[1] not in used_comps:
            picked.append((pair, f))
            search(i + 1, used_comps | set(pair), used_forks | {f}, picked)
            picked.pop()
        search(i + 1, used_comps, used_forks, picked)

    search(0, set(), set(), [])
    return best


def best_comet(instance: Instance, state: PartitionState) -> Star | Comet | None:
    """Structure with the minimum cost index among all stars and comets.

    The largest star covers every center with three or more direct terminal
    components (dropping forks never increases the cost index there); for
    centers with at most two direct components, forks are maximized through
    a maximum matching on the fork-servable pairs.  Ties break on more
    terminals, then smaller center id.  Returns None when no structure
    touches two terminal components.
    """
    from stp12.matching import AuxGraph, max_matching

    candidates: list[tuple[CostIndex, int, int, int, Star | Comet]] = []
    star = find_max_star(instance, state)
    if star is not None and star.s >= 2:
        candidates.append((star_cost_index(star.s), -star.s, star.center, 0, star))

    for center in _free_nodes(instance, state):
        direct_reps = _adjacent_terminal_reps(instance, state, center)
        if len(direct_reps) > 2:
            continue
        directs = sorted(direct_reps)
        pair_forks = build_fork_candidates(instance, state, center, set(directs))
        if not pair_forks:
            continue
        aux = AuxGraph.build(pair_forks)
        matched = sorted(max_matching(aux).pairs)
        assignment = _assign_forks(pair_forks, matched) if matched else None
        if assignment is None:
            assignment = _max_fork_set(pair_forks)
        if not assignment:
            continue
        forks = tuple(
            Fork(
                node=f,
                leaves=pair,
                edges=(
                    connection(center, f),
                    _adjacent_terminal_reps(instance, state, f)[pair[0]],
                    _adjacent_terminal_reps(instance, state, f)[pair[1]],
                ),
            )
            for pair, f in sorted(assignment)
        )
        comet = Comet(
            center=center,
            directs=tuple(directs),
            direct_edges=tuple(direct_reps[r] for r in directs),
            forks=forks,
        )
        candidates.append(
            (comet.cost_index, -comet.terminal_count, center, 1, comet)
        )

    if not candidates:
        return None
    return min(candidates, key=lambda item: item[:4])[4]


def max_3star_set(
    instance: Instance,
    state: PartitionState,
    strategy: str = "exact",
    cap: int = DEFAULT_PACK3_CAP,
) -> tuple[Star, ...]:
    """Maximum-size set of 3-stars disjoint on centers and terminal components.

    The packing problem is solved exactly by branch and bound up to `cap`
    candidate 3-stars; beyond that the exact strategy refuses and the caller
    should fall back to the deterministic greedy.
    """
    if strategy not in PACK3_STRATEGIES:
        raise InputError(f"unknown 3-star strategy {strategy!r}")
    candidates: list[tuple[int, tuple[int, ...], dict[int, Connection]]] = []
    for center in sorted(_free_nodes(instance, state)):
        reps = _adjacent_terminal_reps(instance, state, center)
        if len(reps) < 3:
            continue
        for combo in combinations(sorted(reps), 3):
            candidates.append((center, combo, reps))

    if strategy == "exact" and len(candidates) > cap:
        raise CapExceeded(
            f"3-star packing has {len(candidates)} candidates > cap {cap}; "
            "use the greedy strategy"
        )

    def build(center: int, combo: tuple[int, ...], reps: dict[int, Connection]) -> Star:
        return Star(center, combo, tuple(reps[r] for r in combo))

    if strategy == "greedy" or not candidates:
        picked: list[Star] = []
        used_comps: set[int] = set()
        used_centers: set[int] = set()
        for center, combo, reps in candidates:
            if center in used_centers or used_comps.intersection(combo):
                continue
            picked.append(build(center, combo, reps))
            used_centers.add(center)
            used_comps.update(combo)
        return tuple(picked)

    # Exact branch and bound.  The bound counts distinct centers remaining,
    # since a packing takes at most one 3-star per center.
    suffix_centers = [0] * (len(candidates) + 1)
    seen_centers: set[int] = set()
    for i in range(len(candidates) - 1, -1, -1):
        seen_centers.add(candidates[i][0])
        suffix_centers[i] = len(seen_centers)
    best: list[int] = []

    def search(i: int, used_comps: set[int], used_centers: set[int],
               picked: list[int]) -> None:
        nonlocal best
        if len(picked) > len(best):
            best = list(picked)
        if i == len(candidates) or len(picked) + suffix_centers[i] <= len(best):
            return
        center, combo, _ = candidates[i]
        if center not in used_centers and not used_comps.intersection(combo):
            picked.append(i)
            search(i + 1, used_comps | set(combo), used_centers | {center}, picked)
            picked.pop()
        search(i + 1, used_comps, used_centers, picked)

    search(0, set(), set(), [])
    return tuple(build(*candidates[i]) for i in best)


def upgrade_to_comets(
    instance: Instance,
    state: PartitionState,
    selected: tuple[Star, ...],
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
        fork = _find_free_fork(instance, state, star.center, used_comps, blocked_nodes)
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
    instance: Instance,
    state: PartitionState,
    center: int,
    used_comps: set[int],
    blocked_nodes: set[int],
) -> Fork | None:
    for f in sorted(instance.neighbors(center)):
        if f in blocked_nodes or state.is_terminal_component(f):
            continue
        reps = _adjacent_terminal_reps(instance, state, f)
        fresh = sorted(root for root in reps if root not in used_comps)
        if len(fresh) < 2:
            continue
        pair = (fresh[0], fresh[1])
        return Fork(
            node=f,
            leaves=pair,
            edges=(connection(center, f), reps[pair[0]], reps[pair[1]]),
        )
    return None


def six_phase(
    instance: Instance,
    mode: str = "cheapest",
    pack3: str = "exact",
    pack3_cap: int = DEFAULT_PACK3_CAP,
    log: list[str] | None = None,
) -> Solution:
    """Run all six phases and return a valid solution."""
    if not instance.terminals:
        raise InputError("six_phase needs at least one terminal")

    def note(message: str) -> None:
        if log is not None:
            log.append(message)

    state = PartitionState(instance)
    preprocess_terminal_edges(instance, state)
    note(f"phase 1 terminal edges: cost {state.cost}")

    phase = 2
    while True:
        star = find_max_star(instance, state)
        if star is None or star.s < 4:
            break
        if star.s == 4:
            phase = 3
        collapse(state, star.touched_components(), star.connections())
        note(f"phase {phase} collapse {star.s}-star at {star.center}: cost {state.cost}")

    selected = max_3star_set(instance, state, pack3, pack3_cap)
    note(f"phase 4 packed {len(selected)} disjoint 3-stars ({pack3})")

    upgraded = upgrade_to_comets(instance, state, selected)
    for structure in upgraded:
        collapse(state, structure.touched_components(), structure.connections())
    comet_count = sum(1 for s in upgraded if isinstance(s, Comet))
    note(f"phase 5 upgraded {comet_count} to (1,3)-comets: cost {state.cost}")

    while True:
        structure = best_comet(instance, state)
        if structure is None or structure_cost_index(structure) >= 1:
            break
        collapse(state, structure.touched_components(), structure.connections())
        kind = "star" if isinstance(structure, Star) else "comet"
        note(
            f"phase 6 collapse {kind} ci={structure_cost_index(structure)}: "
            f"cost {state.cost}"
        )

    solution = finishing(instance, state, mode)
    note(f"finishing ({mode}): cost {solution.cost}")
    return solution
