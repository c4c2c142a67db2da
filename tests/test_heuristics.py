import random
from fractions import Fraction

from stp12.core import (
    Instance,
    PartitionState,
    collapse,
    cost,
    is_valid_solution,
)
from stp12.exact import brute_force_opt
from stp12.heuristics import (
    find_max_star,
    finishing,
    preprocess_terminal_edges,
    rayward_smith,
)


def big_star(n):
    # center 0 adjacent to terminals 1..n, terminals pairwise non-adjacent
    return Instance.from_edges(n + 1, [(0, i) for i in range(1, n + 1)], range(1, n + 1))


def random_instance(rng, max_nodes=12, max_terminals=6):
    n = rng.randint(1, max_nodes)
    p = rng.choice([0.2, 0.35, 0.6])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    terminals = rng.sample(range(n), rng.randint(1, min(max_terminals, n)))
    return Instance.from_edges(n, edges, terminals)


def test_find_max_star_full_fan():
    inst = big_star(5)
    star = find_max_star(inst, PartitionState(inst))
    assert star is not None
    assert star.center == 0 and star.s == 5
    assert star.edges == tuple((0, i) for i in range(1, 6))


def test_find_max_star_prefers_larger():
    # center 0 reaches three terminals, center 1 reaches four
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5)]
    inst = Instance.from_edges(6, edges, [2, 3, 4, 5])
    star = find_max_star(inst, PartitionState(inst))
    assert star.center == 1 and star.s == 4


def test_residual_star_shrinks_after_collapse():
    edges = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5)]
    inst = Instance.from_edges(6, edges, [2, 3, 4, 5])
    state = PartitionState(inst)
    star = find_max_star(inst, state)
    assert star.center == 0 and star.s == 4
    collapse(state, star.touched_components(), star.connections())
    residual = find_max_star(inst, state)
    assert residual is not None and residual.s == 1


def test_no_star_when_no_free_center():
    inst = Instance.from_edges(2, [(0, 1)], [0, 1])
    assert find_max_star(inst, PartitionState(inst)) is None


def test_preprocess_collapses_adjacent_terminals():
    inst = Instance.from_edges(2, [(0, 1)], [0, 1])
    state = preprocess_terminal_edges(inst, PartitionState(inst))
    assert state.component_count() == 1 and state.cost == 1


def test_preprocess_terminal_path():
    inst = Instance.from_edges(3, [(0, 1), (1, 2)], [0, 1, 2])
    state = preprocess_terminal_edges(inst, PartitionState(inst))
    assert state.cost == 2
    assert state.component_count() == 1


def test_preprocess_fixed_point_when_nothing_to_do():
    inst = Instance.from_edges(4, [(0, 1)], [2, 3])
    state = preprocess_terminal_edges(inst, PartitionState(inst))
    assert state.cost == 0 and state.connections == []


def test_finishing_strict_with_no_edges():
    inst = Instance.from_edges(3, [], [0, 1, 2])
    state = PartitionState(inst)
    assert finishing(inst, state, "strict-paper").cost == 4
    assert finishing(inst, state, "cheapest").cost == 4


def test_finishing_single_component():
    inst = Instance.from_edges(2, [(0, 1)], [0, 1])
    state = preprocess_terminal_edges(inst, PartitionState(inst))
    assert finishing(inst, state, "strict-paper").cost == 1


def test_finishing_cheapest_uses_representative_edge():
    # two merged terminal pairs joined by one inter-component edge
    inst = Instance.from_edges(4, [(1, 2)], [0, 1, 2, 3])
    state = PartitionState(inst)
    collapse(state, [0, 1], [(0, 1)])
    collapse(state, [2, 3], [(2, 3)])
    assert finishing(inst, state, "cheapest").cost - state.cost == 1
    assert finishing(inst, state, "strict-paper").cost - state.cost == 2


def test_full_star_instance_is_solved_exactly():
    for n in (3, 4, 7):
        inst = big_star(n)
        sol = rayward_smith(inst)
        assert sol.cost == n == brute_force_opt(inst).cost
        assert is_valid_solution(inst, sol.connections)


def test_path_through_steiner_node():
    inst = Instance.from_edges(3, [(0, 1), (1, 2)], [0, 2])
    sol = rayward_smith(inst)
    assert sol.cost == 2 == brute_force_opt(inst).cost


def test_single_terminal_trivial():
    inst = Instance.from_edges(4, [(0, 1), (1, 2)], [3])
    sol = rayward_smith(inst)
    assert sol.cost == 0 and sol.connections == frozenset()


def test_output_valid_and_cost_recomputable():
    rng = random.Random(404)
    for _ in range(150):
        inst = random_instance(rng)
        for mode in ("strict-paper", "cheapest"):
            sol = rayward_smith(inst, mode)
            assert is_valid_solution(inst, sol.connections)
            assert cost(inst, sol.connections) == sol.cost


def test_cheapest_never_beats_strict_and_ratio_bound():
    rng = random.Random(777)
    for _ in range(150):
        inst = random_instance(rng)
        opt = brute_force_opt(inst).cost
        cheap = rayward_smith(inst, "cheapest").cost
        strict = rayward_smith(inst, "strict-paper").cost
        assert cheap <= strict
        assert cheap >= opt
        if opt > 0:
            assert Fraction(cheap, opt) <= Fraction(4, 3)
            assert Fraction(strict, opt) <= Fraction(4, 3)
        else:
            assert cheap == strict == 0
