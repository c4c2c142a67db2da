"""Exact packings and fork sets against verbatim copies of earlier searches.

`max_3star_set` below is phase 4 as it was: it built every candidate
3-star of every center, then ran the exact strategy's branch and bound or
the greedy's first fit over them.  On the states phase 4 meets, after
phases 2-3, every center holds at most three terminal components, and
`sixphase.max_3star_set`, which packs one root triple per center, must
return the same stars in the same order and refuse with the same message.
`max_fork_set` is the exhaustive fork-set search `_comet_at` once fell
back on when the pair matching could not give every matched pair its own
fork node.  It stays the reference for the comet's fork count.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from stp12 import sixphase
from stp12.core import (
    CapExceeded,
    Connection,
    ContractViolation,
    InputError,
    Instance,
    PartitionState,
    collapse,
)
from stp12.heuristics import Star, find_max_star, preprocess_terminal_edges
from stp12.io import GeneratorSpec, generate
from stp12.sixphase import DEFAULT_PACK3_CAP, PACK3_STRATEGIES, build_fork_candidates
from test_view_upkeep import reference_edges


def max_fork_set(
    pair_forks: dict[tuple[int, int], list[int]],
) -> list[tuple[tuple[int, int], int]]:
    """Exact maximum set of component-disjoint pairs with distinct fork nodes.

    Exhaustive at desk scale.
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


def max_3star_set(state: PartitionState, strategy: str = "exact") -> tuple[Star, ...]:
    """Maximum-size set of 3-stars disjoint on centers and terminal components.

    The packing problem is solved exactly by branch and bound up to
    DEFAULT_PACK3_CAP candidate 3-stars; beyond that the exact strategy
    refuses and the caller should fall back to the deterministic greedy.
    """
    if strategy not in PACK3_STRATEGIES:
        raise InputError(f"unknown 3-star strategy {strategy!r}")
    candidates: list[tuple[int, tuple[int, ...], dict[int, Connection]]] = []
    view = state.view_upkeep().view
    # The view keeps no center order; both packings depend on this one.
    # Each entry is rebuilt with its edges by a plain scan.
    for center in sorted(view):
        if len(view[center]) < 3:
            continue
        reps = reference_edges(state, center)
        for combo in combinations(sorted(reps), 3):
            candidates.append((center, combo, reps))

    if strategy == "exact" and len(candidates) > DEFAULT_PACK3_CAP:
        raise CapExceeded(
            f"3-star packing has {len(candidates)} candidates > cap {DEFAULT_PACK3_CAP}; "
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


def first_max_by_enumeration(candidates):
    """Lexicographically smallest index tuple among the maximum packings."""
    for size in range(len(candidates), 0, -1):
        for chosen in combinations(range(len(candidates)), size):
            owners = [candidates[i][0] for i in chosen]
            comps = [c for i in chosen for c in candidates[i][1]]
            if len(set(owners)) == len(owners) and len(set(comps)) == len(comps):
                return list(chosen)
    return []


def triple_gadget(rng):
    """Two to twelve centers, each tied to two or three of five to fourteen terminals.

    No entry holds more than three roots, so phases 2-3 leave the state as
    it is, and the triples overlap often enough for the first fit to miss
    the maximum.
    """
    center_count, terminal_count = rng.randint(2, 12), rng.randint(5, 14)
    terminals = range(center_count, center_count + terminal_count)
    edges = sorted((center, t) for center in range(center_count)
                   for t in rng.sample(terminals, rng.choice((2, 3, 3, 3))))
    return Instance.from_edges(center_count + terminal_count, edges, terminals)


def after_phase_three(inst):
    """The state `six_phase` hands phase 4: phases 1-3 run on a fresh state."""
    state = preprocess_terminal_edges(inst)
    while (star := find_max_star(state, 4)) is not None:
        collapse(state, star.touched_components(), star.connections())
    return state


def test_max_3star_set_returns_the_first_maximum_on_random_triple_gadgets():
    rng = random.Random(5)
    for _ in range(300):
        state = after_phase_three(triple_gadget(rng))
        view = state.view_upkeep().view
        candidates = [(center, tuple(sorted(view[center]))) for center in sorted(view)
                      if len(view[center]) == 3]
        want = [candidates[i] for i in first_max_by_enumeration(candidates)]
        got = [(star.center, star.leaves) for star in sixphase.max_3star_set(state, "exact")]
        assert got == want


def outcome(pack, state, strategy):
    try:
        return pack(state, strategy)
    except CapExceeded as exc:
        return str(exc)


def phase_one_states():
    """States after phase 1 whose view entries hold three to six roots."""
    specs = [GeneratorSpec("star-cluster", {"k": k, "m": m}) for k in (3, 4, 5, 6)
             for m in (1, 2, 3)]
    specs += [GeneratorSpec("random-gnp", {"n": n, "p": Fraction(2, 5), "r": n // 2}, seed)
              for n in (10, 12, 14, 16) for seed in range(30)]
    specs += [GeneratorSpec("random-gnp", {"n": 24, "p": Fraction(1, 3), "r": 14}, seed)
              for seed in range(3)]
    specs.append(GeneratorSpec("star-cluster", {"k": 16, "m": 1}))
    trap = [(0, 3), (0, 5), (0, 7), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8)]
    instances = [Instance.from_edges(9, trap, [3, 4, 5, 6, 7, 8])]
    instances += [generate(spec) for spec in specs]
    states = []
    for inst in instances:
        state = preprocess_terminal_edges(inst)
        states.append(state)
    return states


def phase_three_states():
    """`phase_one_states`, triple gadgets and 513 disjoint 3-stars, after phase 3."""
    rng = random.Random(7)
    instances = [state.instance for state in phase_one_states()]
    instances += [triple_gadget(rng) for _ in range(200)]
    instances.append(generate(GeneratorSpec("comet-chain", {"a": 0, "b": 3, "count": 513})))
    return [after_phase_three(inst) for inst in instances]


def test_max_3star_set_matches_reference():
    states = phase_three_states()
    sizes = {len(reps) for state in states for reps in state.view_upkeep().view.values()}
    assert max(sizes) == 3
    refused = differ = 0
    for state in states:
        for strategy in PACK3_STRATEGIES:
            want = outcome(max_3star_set, state, strategy)
            assert outcome(sixphase.max_3star_set, state, strategy) == want
        exact, greedy = (outcome(max_3star_set, state, s) for s in PACK3_STRATEGIES)
        refused += isinstance(exact, str)
        differ += not isinstance(exact, str) and exact != greedy
    # Both the cap and the exact-only packings are reached.
    assert refused and differ


def fork_gadget(rng, reach):
    """Center 0 with up to two directs and fork nodes over shared terminals.

    Each fork node reaches `reach(terminal_count)` terminals; with fewer
    terminals than twice the fork nodes their pairs overlap.
    """
    fork_count, terminal_count = rng.randint(1, 4), rng.randint(4, 8)
    n = 1 + fork_count + terminal_count
    terminals = range(1 + fork_count, n)
    edges = {(0, f) for f in range(1, 1 + fork_count)}
    for f in range(1, 1 + fork_count):
        edges.update((f, t) for t in rng.sample(terminals, reach(terminal_count)))
    edges.update((0, t) for t in rng.sample(terminals, rng.randint(0, 2)))
    return Instance.from_edges(n, sorted(edges), terminals)


def test_comet_search_refuses_a_center_next_to_an_entry_of_3_or_more_roots():
    # Fork node 1 alone reaches terminals 2..5, and center 6 holds three
    # directs; fork gadgets add random entries of 2 to 5 roots.
    single = Instance.from_edges(
        7, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 6)], [2, 3, 4, 5]
    )
    rng = random.Random(11)
    instances = [single] + [fork_gadget(rng, lambda k: rng.randint(2, min(5, k)))
                            for _ in range(80)]
    refused = served = 0
    for inst in instances:
        state = preprocess_terminal_edges(inst)
        view = state.view_upkeep().view
        for center in range(inst.node_count):
            if state.is_terminal_component(center):
                continue
            if any(len(view.get(v, ())) >= 3 for v in (center, *inst.neighbors(center))):
                refused += 1
                with pytest.raises(ContractViolation, match="comet search met"):
                    sixphase._comet_at(state, center)
                with pytest.raises(ContractViolation, match="comet search met"):
                    sixphase._comet_shape(inst, view, center)
            else:
                comet = sixphase._comet_at(state, center)
                shape = sixphase._comet_shape(inst, view, center)
                assert shape == (None if comet is None else (comet.a, comet.s))
                served += comet is not None
    assert refused >= 50 and served >= 5


def test_comets_at_states_six_phase_scores_have_the_most_forks():
    # Every fork node reaches exactly two terminals, so every entry holds at
    # most two roots, and the pairs of several fork nodes overlap.
    rng = random.Random(11)
    multi_fork = 0
    for _ in range(120):
        inst = fork_gadget(rng, lambda k: 2)
        state = preprocess_terminal_edges(inst)
        view = state.view_upkeep().view
        assert all(len(reps) <= 2 for reps in view.values())
        for center in range(inst.node_count):
            if state.is_terminal_component(center):
                continue
            comet = sixphase._comet_at(state, center)
            forks = () if comet is None else comet.forks
            nodes = [fork.node for fork in forks]
            assert len(set(nodes)) == len(nodes)
            want = max_fork_set(build_fork_candidates(inst, view, center))
            assert len(forks) == len(want)
            multi_fork += len(forks) >= 2
    assert multi_fork >= 5
