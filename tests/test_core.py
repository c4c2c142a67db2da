import random
from fractions import Fraction

import pytest

from stp12 import io as stpio
from stp12.core import (
    ContractViolation,
    InputError,
    Instance,
    PartitionState,
    Solution,
    collapse,
    connection,
    cost,
    edges_to,
    induced_graph,
    is_valid_solution,
)
from stp12.harness import full_corpus
from stp12.heuristics import rayward_smith
from stp12.sixphase import six_phase


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


def check_against_masks(inst, node_count, edges, terminals, pairs=None):
    """Every query of `inst` against bitmasks built from the same edge list."""
    masks = [0] * node_count
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    def decoded(mask):
        bits = []
        while mask:
            low = mask & -mask
            bits.append(low.bit_length() - 1)
            mask ^= low
        return tuple(bits)

    want_edges = [(u, v) for u in range(node_count) for v in decoded(masks[u]) if u < v]
    terms = set(terminals)
    assert inst.node_count == node_count and inst.terminals == terms
    assert [inst.neighbors(v) for v in range(node_count)] == [decoded(m) for m in masks]
    assert list(inst.edges()) == want_edges
    assert list(inst.terminal_edges()) == [(u, v) for u, v in want_edges
                                           if u in terms and v in terms]
    assert inst.edge_count() == len(want_edges)
    if pairs is None:
        pairs = [(u, v) for u in range(node_count) for v in range(node_count)]
    for u, v in pairs:
        assert inst.has_edge(u, v) == bool(masks[u] >> v & 1), (u, v)
    assert inst.adjacency == tuple(masks)


def test_tuple_queries_match_bitmasks_on_the_corpus():
    # Each corpus instance is rebuilt from its edge list shuffled, with every
    # edge also listed reversed and some twice, plus an isolated node.
    rng = random.Random(5)
    for _, inst in full_corpus(seed=0):
        n = inst.node_count + 1
        edges = list(inst.edges())
        listed = edges + [(v, u) for u, v in edges] + rng.sample(edges, len(edges) // 3)
        rng.shuffle(listed)
        rebuilt = Instance.from_edges(n, listed, inst.terminals)
        check_against_masks(rebuilt, n, listed, inst.terminals)
        check_against_masks(inst, inst.node_count, edges, inst.terminals)


def test_tuple_queries_match_bitmasks_on_random_sparse_draws():
    # The generator's own draws, read back through the generator's instance
    # and through from_edges with the list reversed and duplicated.
    for n, seed in ((50, 1), (300, 2), (2000, 3)):
        p = Fraction(4, n - 1)
        rng = random.Random(seed)
        edges = stpio._sparse_edges(n, float(p), rng)
        terminals = rng.sample(range(n), n // 4)
        spec = stpio.GeneratorSpec("random-sparse", {"n": n, "p": p, "r": n // 4}, seed=seed)
        generated = stpio.generate(spec)
        listed = edges[::-1] + edges[: n // 3]
        rebuilt = Instance.from_edges(n, listed, terminals)
        assert rebuilt == generated
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(5000)]
        pairs += [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
        check_against_masks(generated, n, edges, terminals, pairs)
        check_against_masks(rebuilt, n, listed, terminals, pairs)


def test_isolated_nodes_and_duplicate_edges():
    # A repeat, a reversed pair or a pair out of order builds the same Instance.
    want = Instance.from_edges(6, [(1, 4), (2, 4)], [5, 1])
    for edges in ([(4, 1), (1, 4), (4, 1), (2, 4)], [(1, 4), (1, 4), (2, 4)],
                  [(1, 4), (4, 2)], [(2, 4), (1, 4)]):
        inst = Instance.from_edges(6, edges, [1, 5])
        check_against_masks(inst, 6, edges, [1, 5])
        assert inst == want
    assert want.neighbors(4) == (1, 2) and want.neighbors(0) == () == want.neighbors(5)


def test_heuristics_never_build_the_bitmasks():
    spec = stpio.GeneratorSpec(
        "random-sparse", {"n": 20000, "p": Fraction(4, 19999), "r": 5000}, seed=1
    )
    inst = stpio.generate(spec)
    rayward_smith(inst)
    six_phase(inst, pack3="greedy")
    assert "adjacency" not in vars(inst)
    inst.adjacency
    assert "adjacency" in vars(inst)


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
    # Before any merge only an edge between two terminals joins two
    # terminal components; (1, 2) and (3, 4) end at a free node.
    inst = Instance.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 4)], [0, 1, 4])
    state = PartitionState(inst)
    assert induced_graph(state) == {(0, 1): (0, 1), (0, 4): (0, 4)}


def test_induced_graph_single_component_is_empty():
    inst = path3()
    state = PartitionState(inst)
    collapse(state, [0, 1], [(0, 1)])
    collapse(state, [0, 2], [(1, 2)])
    assert induced_graph(state) == {}


def test_induced_graph_after_merge_has_representative():
    inst = path3()
    state = PartitionState(inst)
    collapse(state, [0, 1], [(0, 1)])
    assert induced_graph(state) == {(0, 2): (1, 2)}


def test_induced_graph_keeps_the_smallest_edge_between_two_components():
    # Components {1, 4} (free 1 absorbed) and {2, 5} are joined by the
    # terminal edge (4, 5) and by (1, 5) at the absorbed node.  In the
    # second instance, components {0, 3} and {4, 5} are joined by the
    # terminal edge (0, 5) and by (3, 4) at the absorbed node.
    inst = Instance.from_edges(6, [(1, 4), (2, 5), (1, 5), (4, 5)], [2, 4, 5])
    state = PartitionState(inst)
    state.union(4, 1)
    state.union(2, 5)
    assert induced_graph(state) == {(1, 2): (1, 5)}

    inst = Instance.from_edges(6, [(0, 3), (4, 5), (0, 5), (3, 4)], [0, 4, 5])
    state = PartitionState(inst)
    state.union(0, 3)
    state.union(4, 5)
    assert induced_graph(state) == {(0, 4): (0, 5)}


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
    assert {state.find(v) for v in range(4)} == {0}
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
    assert not state.is_terminal_component(2)
    collapse(state, [2, 3], [(2, 3)])
    assert state.is_terminal_component(2)
    assert not state.is_terminal_component(1)
    collapse(state, [1, 2], [(1, 2)])
    collapse(state, [0, 1], [(0, 1)])
    assert state.is_terminal_component(0)
    assert state.terminal_components() == [0]


def test_merges_that_join_no_terminal_component_are_refused():
    # Free components stay single free nodes: a union or collapse of free
    # nodes alone raises and leaves the partition, cost and view as they were.
    inst = Instance.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0, 4])
    state = PartitionState(inst)
    collapse(state, [0, 1], [(0, 1)])
    view = state.view_upkeep().view
    assert view == {2: {0}, 3: {4}}
    assert edges_to(state, 2, [0]) + edges_to(state, 3, [4]) == ((1, 2), (3, 4))
    before = (list(state.connections), state.cost, {v: set(r) for v, r in view.items()})
    with pytest.raises(ContractViolation):
        state.union(2, 3)
    with pytest.raises(ContractViolation):
        collapse(state, [2, 3], [(2, 3)])
    with pytest.raises(ContractViolation):
        state.merge([2, 3])
    assert (state.connections, state.cost, view) == before
    assert [state.find(v) for v in range(5)] == [0, 0, 2, 3, 4]
    assert state.view_upkeep().view is view


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
            # every collapse joins a terminal component
            roots = sorted({state.find(v) for v in range(n)})
            if len(roots) < 2:
                break
            a = rng.choice(state.terminal_components())
            b = rng.choice([r for r in roots if r != a])
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
