import random
from fractions import Fraction

import pytest

from stp12.core import (
    CapExceeded,
    InputError,
    Instance,
    PartitionState,
    cost,
    is_valid_solution,
)
from stp12.exact import brute_force_opt
from stp12.harness import exhaustive_min_cost_index
from stp12.heuristics import Star, preprocess_terminal_edges
from stp12.sixphase import (
    Comet,
    Fork,
    best_comet,
    cost_index,
    max_3star_set,
    six_phase,
    star_cost_index,
    structure_cost_index,
    upgrade_to_comets,
)


def fresh_state(inst):
    state = PartitionState(inst)
    preprocess_terminal_edges(inst, state)
    return state


def comet_gadget_1_3():
    # center 0, direct terminals 2..4, fork 1 reaching terminals 5 and 6
    edges = [(0, 2), (0, 3), (0, 4), (0, 1), (1, 5), (1, 6)]
    return Instance.from_edges(7, edges, [2, 3, 4, 5, 6])


def comet_gadget_1_2():
    # center 0 with directs 2, 3; fork 1 reaching terminals 4 and 5
    edges = [(0, 2), (0, 3), (0, 1), (1, 4), (1, 5)]
    return Instance.from_edges(6, edges, [2, 3, 4, 5])


def random_instance(rng, max_nodes=12, max_terminals=6):
    n = rng.randint(1, max_nodes)
    p = rng.choice([0.2, 0.35, 0.6])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    terminals = rng.sample(range(n), rng.randint(1, min(max_terminals, n)))
    return Instance.from_edges(n, edges, terminals)


def test_cost_index_closed_forms_sample():
    assert cost_index(4, 4) == Fraction(1, 3)          # 4-star
    assert cost_index(5, 6) == Fraction(1, 2)          # (1,3)-comet
    assert cost_index(2, 1) == 0                       # terminal edge
    assert star_cost_index(3) == Fraction(1, 2)
    with pytest.raises(InputError):
        cost_index(1, 1)


def test_comet_counts_and_index():
    fork = Fork(node=1, leaves=(4, 5), edges=((0, 1), (1, 4), (1, 5)))
    comet = Comet(center=0, directs=(2, 3), direct_edges=((0, 2), (0, 3)), forks=(fork,))
    assert comet.a == 1 and comet.b == 2
    assert comet.terminal_count == 4 and comet.edge_count == 5
    assert comet.cost_index == Fraction(2, 3)


def test_comet_rejects_shared_components():
    fork = Fork(node=1, leaves=(2, 5), edges=((0, 1), (1, 2), (1, 5)))
    with pytest.raises(InputError):
        Comet(center=0, directs=(2, 3), direct_edges=((0, 2), (0, 3)), forks=(fork,))


def test_best_comet_finds_1_2_comet():
    inst = comet_gadget_1_2()
    state = fresh_state(inst)
    structure = best_comet(inst, state)
    assert isinstance(structure, Comet)
    assert (structure.a, structure.b) == (1, 2)
    assert structure_cost_index(structure) == Fraction(2, 3)
    assert exhaustive_min_cost_index(inst, state) == Fraction(2, 3)


def test_best_comet_prefers_large_star():
    # center 0 carries four directs; the comet option has a worse index
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (5, 7)]
    inst = Instance.from_edges(8, edges, [1, 2, 3, 4, 6, 7])
    state = fresh_state(inst)
    structure = best_comet(inst, state)
    assert isinstance(structure, Star)
    assert structure.s == 4
    assert structure_cost_index(structure) == Fraction(1, 3)


def test_best_comet_absent_without_structures():
    inst = Instance.from_edges(3, [], [0, 1, 2])
    assert best_comet(inst, PartitionState(inst)) is None


def test_best_comet_fork_exclusivity_fallback():
    # one physical fork 1 serves every pair among terminals 2..5, so only a
    # single fork can be realized even though the pair matching has size 2
    edges = [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (0, 6), (0, 7)]
    inst = Instance.from_edges(8, edges, [2, 3, 4, 5, 6, 7])
    state = fresh_state(inst)
    structure = best_comet(inst, state)
    want = exhaustive_min_cost_index(inst, state)
    assert structure is not None
    assert structure_cost_index(structure) == want
    if isinstance(structure, Comet):
        assert structure.a <= 1


def test_best_comet_matches_enumeration_randomized():
    rng = random.Random(61)
    for _ in range(120):
        inst = random_instance(rng)
        state = fresh_state(inst)
        structure = best_comet(inst, state)
        got = None if structure is None else structure_cost_index(structure)
        assert got == exhaustive_min_cost_index(inst, state)


def test_max_3star_set_two_disjoint():
    edges = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]
    inst = Instance.from_edges(8, edges, [1, 2, 3, 5, 6, 7])
    stars = max_3star_set(inst, PartitionState(inst))
    assert len(stars) == 2


def test_max_3star_set_overlap_allows_one():
    # both centers need terminal 3
    edges = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (1, 6)]
    inst = Instance.from_edges(7, edges, [2, 3, 4, 5, 6])
    stars = max_3star_set(inst, PartitionState(inst))
    assert len(stars) == 1


def test_max_3star_set_exact_beats_greedy_trap():
    # 7 terminals, 3 centers; the lexicographically first 3-star blocks the
    # other two, so greedy finds 1 but the exact packing finds 2.
    edges = (
        [(0, 3), (0, 5), (0, 7)]
        + [(1, 3), (1, 4), (1, 5)]
        + [(2, 6), (2, 7), (2, 8)]
    )
    inst = Instance.from_edges(9, edges, [3, 4, 5, 6, 7, 8])
    state = PartitionState(inst)
    exact = max_3star_set(inst, state, "exact")
    greedy = max_3star_set(inst, state, "greedy")
    assert len(exact) == 2
    assert len(greedy) == 1
    assert len(exact) == _exhaustive_packing_size(inst, state)


def _exhaustive_packing_size(inst, state):
    from itertools import combinations

    candidates = []
    for center in range(inst.node_count):
        if state.is_terminal_component(center):
            continue
        comps = sorted(
            {state.find(v) for v in inst.neighbors(center)
             if state.is_terminal_component(v)}
        )
        for combo in combinations(comps, 3):
            candidates.append((center, set(combo)))
    best = 0
    for mask in range(1 << len(candidates)):
        chosen = [candidates[i] for i in range(len(candidates)) if mask >> i & 1]
        centers = [c for c, _ in chosen]
        comps: list[int] = []
        for _, combo in chosen:
            comps.extend(combo)
        if len(set(centers)) == len(centers) and len(set(comps)) == len(comps):
            best = max(best, len(chosen))
    return best


def test_max_3star_set_cap_refusal():
    edges = [(0, i) for i in range(1, 9)]
    inst = Instance.from_edges(9, edges, range(1, 9))
    with pytest.raises(CapExceeded):
        max_3star_set(inst, PartitionState(inst), "exact", cap=10)
    stars = max_3star_set(inst, PartitionState(inst), "greedy", cap=10)
    assert len(stars) == 1


def test_upgrade_unchanged_without_fork():
    inst = Instance.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 3])
    state = PartitionState(inst)
    stars = max_3star_set(inst, state)
    assert upgrade_to_comets(inst, state, stars) == stars


def test_upgrade_builds_1_3_comet():
    inst = comet_gadget_1_3()
    state = fresh_state(inst)
    stars = max_3star_set(inst, state)
    assert len(stars) == 1
    upgraded = upgrade_to_comets(inst, state, stars)
    assert isinstance(upgraded[0], Comet)
    assert (upgraded[0].a, upgraded[0].b) == (1, 3)


def test_upgrade_competing_stars_share_one_fork():
    # two 3-star centers 0 and 1 both adjacent to fork 2; terminals 9 and 10
    # are the only fresh pair, so exactly the first star upgrades
    edges = (
        [(0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8)]
        + [(0, 2), (1, 2), (2, 9), (2, 10)]
    )
    inst = Instance.from_edges(11, edges, [3, 4, 5, 6, 7, 8, 9, 10])
    state = PartitionState(inst)
    stars = max_3star_set(inst, state)
    assert len(stars) == 2
    upgraded = upgrade_to_comets(inst, state, stars)
    kinds = [type(s).__name__ for s in sorted(upgraded, key=lambda s: s.center)]
    assert kinds == ["Comet", "Star"]


def test_six_phase_solves_single_star():
    for n in (3, 4, 5, 7):
        edges = [(0, i) for i in range(1, n + 1)]
        inst = Instance.from_edges(n + 1, edges, range(1, n + 1))
        sol = six_phase(inst)
        assert sol.cost == n == brute_force_opt(inst).cost


def test_six_phase_solves_comet_gadget():
    inst = comet_gadget_1_3()
    assert brute_force_opt(inst).cost == 6
    sol = six_phase(inst)
    assert sol.cost == 6
    assert is_valid_solution(inst, sol.connections)


def test_six_phase_path3():
    inst = Instance.from_edges(3, [(0, 1), (1, 2)], [0, 2])
    assert six_phase(inst).cost == 2 == brute_force_opt(inst).cost


def test_six_phase_phase6_collapses_only_below_one():
    log: list[str] = []
    inst = comet_gadget_1_2()
    sol = six_phase(inst, log=log)
    assert any("phase 6" in line and "2/3" in line for line in log)
    assert sol.cost == brute_force_opt(inst).cost == 5


def test_six_phase_valid_and_bounded_random():
    rng = random.Random(321)
    for _ in range(150):
        inst = random_instance(rng)
        opt = brute_force_opt(inst).cost
        for mode in ("cheapest", "strict-paper"):
            sol = six_phase(inst, mode)
            assert is_valid_solution(inst, sol.connections)
            assert cost(inst, sol.connections) == sol.cost
            assert sol.cost >= opt
            if opt > 0:
                assert Fraction(sol.cost, opt) <= Fraction(5, 4), (
                    inst.node_count,
                    sorted(inst.edges()),
                    sorted(inst.terminals),
                )


def test_six_phase_deterministic():
    rng = random.Random(9)
    inst = random_instance(rng, max_nodes=11)
    assert six_phase(inst) == six_phase(inst)


def test_six_phase_known_suboptimal_case_stays_within_bound():
    # found by randomized search: the greedy phases miss the optimum here,
    # landing at 12 against an optimum of 11 (ratio 12/11 < 5/4)
    edges = [
        (0, 5), (0, 6), (0, 9), (2, 5), (2, 8), (2, 9), (2, 11), (2, 13),
        (3, 6), (3, 7), (4, 7), (4, 8), (5, 8), (5, 11), (5, 12), (6, 7),
        (6, 8), (6, 9), (6, 12), (8, 11), (8, 12), (8, 13), (11, 12), (12, 13),
    ]
    inst = Instance.from_edges(14, edges, [0, 1, 3, 4, 9, 10, 11, 13])
    opt = brute_force_opt(inst).cost
    got = six_phase(inst).cost
    assert opt == 11
    assert got == 12
    assert Fraction(got, opt) <= Fraction(5, 4)
