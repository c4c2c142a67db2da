import random

import pytest

from stp12.core import (
    ContractViolation,
    InputError,
    Instance,
    PartitionState,
    Solution,
    collapse,
    connection,
    cost,
    induced_graph,
    is_valid_solution,
)


def path3():
    # 0 - 1 - 2, terminals at the ends
    return Instance.from_edges(3, [(0, 1), (1, 2)], [0, 2])


def test_instance_rejects_self_loops():
    with pytest.raises(InputError):
        Instance.from_edges(3, [(1, 1)], [0])


def test_instance_rejects_out_of_range():
    with pytest.raises(InputError):
        Instance.from_edges(3, [(0, 3)], [0])
    with pytest.raises(InputError):
        Instance.from_edges(3, [(0, 1)], [5])


def test_adjacency_symmetric():
    inst = Instance.from_edges(4, [(0, 2), (3, 1)], [0])
    assert inst.has_edge(0, 2) and inst.has_edge(2, 0)
    assert inst.has_edge(1, 3) and inst.has_edge(3, 1)
    assert not inst.has_edge(0, 1)
    assert list(inst.edges()) == [(0, 2), (1, 3)]


def test_cost_two_unit_edges():
    inst = path3()
    assert cost(inst, [(0, 1), (1, 2)]) == 2


def test_cost_single_non_edge():
    inst = path3()
    assert cost(inst, [(0, 2)]) == 2


def test_cost_empty():
    assert cost(path3(), []) == 0


def test_cost_rejects_bad_endpoint():
    with pytest.raises(InputError):
        cost(path3(), [(0, 7)])


def test_validity_path_and_empty():
    inst = path3()
    assert is_valid_solution(inst, [(0, 1), (1, 2)])
    assert not is_valid_solution(inst, [])


def test_validity_rejects_bad_endpoint():
    inst = path3()
    for bad in [(-1, 2), (0, 3)]:
        with pytest.raises(InputError):
            is_valid_solution(inst, [(0, 1), bad])


def test_validity_single_terminal():
    inst = Instance.from_edges(3, [(0, 1)], [1])
    assert is_valid_solution(inst, [])


def test_induced_graph_identity_partition():
    inst = Instance.from_edges(5, [(0, 1), (1, 2), (3, 4)], [0])
    state = PartitionState(inst)
    cg = induced_graph(inst, state)
    assert cg.components == (0, 1, 2, 3, 4)
    assert set(cg.edges) == {(0, 1), (1, 2), (3, 4)}
    assert all(cg.edges[key] == key for key in cg.edges)


def test_induced_graph_single_component_is_empty():
    inst = path3()
    state = PartitionState(inst)
    collapse(state, [0, 1], [(0, 1)])
    collapse(state, [0, 2], [(1, 2)])
    assert induced_graph(inst, state).edges == {}


def test_induced_graph_after_merge_has_representative():
    inst = path3()
    state = PartitionState(inst)
    collapse(state, [0, 1], [(0, 1)])
    cg = induced_graph(inst, state)
    assert cg.edges == {(0, 2): (1, 2)}


def test_collapse_two_components_edge_cost():
    inst = path3()
    state = PartitionState(inst)
    collapse(state, [0, 1], [(0, 1)])
    assert state.cost == 1
    assert state.find(0) == state.find(1) == 0


def test_collapse_three_star():
    # Collapsing a 3-star merges four components for cost 3.
    inst = Instance.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 3])
    state = PartitionState(inst)
    collapse(state, [0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    assert state.cost == 3
    assert state.component_count() == 1
    assert state.is_terminal_component(0)


def test_collapse_non_edge_costs_two():
    inst = path3()
    state = PartitionState(inst)
    collapse(state, [0, 2], [(0, 2)])
    assert state.cost == 2


def test_collapse_rejects_cycle():
    inst = Instance.from_edges(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2])
    state = PartitionState(inst)
    with pytest.raises(ContractViolation):
        collapse(state, [0, 1, 2], [(0, 1), (1, 2), (0, 2)])


def test_collapse_rejects_non_spanning():
    inst = Instance.from_edges(4, [(0, 1), (2, 3)], [0, 1, 2, 3])
    state = PartitionState(inst)
    with pytest.raises(ContractViolation):
        collapse(state, [0, 1, 2, 3], [(0, 1), (0, 1), (2, 3)])


def test_collapse_rejects_foreign_edge():
    inst = Instance.from_edges(4, [(0, 1), (2, 3)], [0, 1])
    state = PartitionState(inst)
    with pytest.raises(ContractViolation):
        collapse(state, [0, 1], [(2, 3)])


def test_terminal_flag_is_or_of_merged():
    inst = Instance.from_edges(4, [(0, 1), (1, 2), (2, 3)], [3])
    state = PartitionState(inst)
    collapse(state, [0, 1], [(0, 1)])
    assert not state.is_terminal_component(0)
    collapse(state, [2, 3], [(2, 3)])
    assert state.is_terminal_component(2)
    collapse(state, [0, 2], [(1, 2)])
    assert state.is_terminal_component(0)
    assert state.terminal_components() == [0]


def test_cost_subadditive_and_exact_on_disjoint_union():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        inst = Instance.from_edges(n, edges, [0])
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        a = set(rng.sample(pairs, min(len(pairs), rng.randint(0, 6))))
        b = set(rng.sample(pairs, min(len(pairs), rng.randint(0, 6))))
        assert cost(inst, a | b) <= cost(inst, a) + cost(inst, b)
        if not (a & b):
            assert cost(inst, a | b) == cost(inst, a) + cost(inst, b)


def test_accumulated_cost_matches_recomputation():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(3, 14)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        inst = Instance.from_edges(n, edges, rng.sample(range(n), rng.randint(1, n)))
        state = PartitionState(inst)
        for _ in range(rng.randint(1, 6)):
            roots = state.components()
            if len(roots) < 2:
                break
            a, b = rng.sample(roots, 2)
            u = rng.choice([x for x in range(n) if state.find(x) == a])
            v = rng.choice([x for x in range(n) if state.find(x) == b])
            collapse(state, [a, b], [(u, v)])
        assert state.cost == cost(inst, state.connections)


def test_minimal_valid_solutions_are_forests():
    inst = Instance.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 2])
    conns = {(0, 1), (1, 2), (2, 3), connection(3, 0)}
    assert is_valid_solution(inst, conns)
    # dropping any single cycle connection keeps validity
    for drop in list(conns):
        assert is_valid_solution(inst, conns - {drop})


def test_solution_from_connections():
    inst = path3()
    sol = Solution.from_connections(inst, [(1, 0), (1, 2)])
    assert sol.cost == 2
    assert sol.connections == frozenset({(0, 1), (1, 2)})
