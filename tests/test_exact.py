import random
from itertools import combinations

import pytest

from stp12.core import CapExceeded, Instance, cost, is_valid_solution
from stp12 import exact
from stp12.exact import DREYFUS_WAGNER_NODE_CAP, _steiner_sets, brute_force_opt, dreyfus_wagner


def star_gadget():
    # Non-terminal 0 adjacent to three pairwise non-adjacent terminals.
    return Instance.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 3])


def random_instance(rng, max_nodes=12, max_terminals=6):
    n = rng.randint(1, max_nodes)
    p = rng.choice([0.15, 0.3, 0.5, 0.8])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    r = rng.randint(1, min(max_terminals, n))
    terminals = rng.sample(range(n), r)
    return Instance.from_edges(n, edges, terminals)


def test_single_terminal_costs_zero():
    inst = Instance.from_edges(3, [(0, 1)], [2])
    assert brute_force_opt(inst).cost == 0
    assert dreyfus_wagner(inst).cost == 0


def test_two_adjacent_terminals():
    inst = Instance.from_edges(2, [(0, 1)], [0, 1])
    assert brute_force_opt(inst).cost == 1


def test_two_terminals_at_distance_two():
    inst = Instance.from_edges(2, [], [0, 1])
    assert dreyfus_wagner(inst).cost == 2
    assert brute_force_opt(inst).cost == 2


def test_three_star_beats_non_edges():
    # Using the center costs 3; spanning the terminals directly costs 4.
    inst = star_gadget()
    res = brute_force_opt(inst)
    assert res.cost == 3
    assert dreyfus_wagner(inst).cost == 3


def test_terminal_clique_spanned_by_edges():
    k = 5
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    inst = Instance.from_edges(k, edges, range(k))
    assert dreyfus_wagner(inst).cost == k - 1
    assert brute_force_opt(inst).cost == k - 1


def test_caps_are_enforced():
    big = Instance.from_edges(25, [], [0])
    with pytest.raises(CapExceeded):
        brute_force_opt(big)
    many = Instance.from_edges(14, [], range(14))
    with pytest.raises(CapExceeded):
        dreyfus_wagner(many)
    # an explicit cap overrides the default: oracle-reach passes n = 28-36
    assert brute_force_opt(big, max_nodes=25).cost == 0


def test_dreyfus_wagner_node_cap_refuses_before_building_the_masks(monkeypatch):
    n = DREYFUS_WAGNER_NODE_CAP + 1
    inst = Instance.from_edges(n, [(v, v + 1) for v in range(9)], range(10))
    with pytest.raises(CapExceeded, match=f"n={n} > cap {DREYFUS_WAGNER_NODE_CAP}"):
        dreyfus_wagner(inst)
    assert "adjacency" not in inst.__dict__
    # The cap itself is allowed; shown at a small cap, as the masks of
    # 2^15 nodes alone take 128 MiB.
    monkeypatch.setattr(exact, "DREYFUS_WAGNER_NODE_CAP", 12)
    path = [(v, v + 1) for v in range(9)]
    assert dreyfus_wagner(Instance.from_edges(12, path, range(10))).cost == 9
    with pytest.raises(CapExceeded, match="n=13 > cap 12"):
        dreyfus_wagner(Instance.from_edges(13, path, range(10)))


def test_witnesses_are_valid_and_cost_consistent():
    rng = random.Random(99)
    for _ in range(120):
        inst = random_instance(rng)
        for res in (brute_force_opt(inst), dreyfus_wagner(inst)):
            assert is_valid_solution(inst, res.connections)
            assert cost(inst, res.connections) == res.cost


def test_oracles_agree_on_random_instances():
    rng = random.Random(2026)
    for _ in range(250):
        inst = random_instance(rng)
        assert brute_force_opt(inst).cost == dreyfus_wagner(inst).cost


def test_optimum_invariant_under_relabeling():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_instance(rng, max_nodes=9)
        perm = list(range(inst.node_count))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in inst.edges()]
        terminals = [perm[t] for t in inst.terminals]
        relabeled = Instance.from_edges(inst.node_count, edges, terminals)
        assert brute_force_opt(inst).cost == brute_force_opt(relabeled).cost


def test_deterministic_witness():
    rng = random.Random(8)
    inst = random_instance(rng)
    assert brute_force_opt(inst) == brute_force_opt(inst)
    assert dreyfus_wagner(inst) == dreyfus_wagner(inst)



def test_steiner_sets_keep_exactly_the_filtered_combinations():
    # Every non-terminal is offered, degree < 3 included, so the search
    # must cut branches that a filter over all combinations would reject.
    rng = random.Random(12)
    for _ in range(300):
        inst = random_instance(rng, max_nodes=11, max_terminals=6)
        adjacency = inst.adjacency
        term_mask = sum(1 << t for t in inst.terminals)
        candidates = [v for v in range(inst.node_count) if v not in inst.terminals]
        for size in range(len(candidates) + 1):
            expected = []
            for extra in combinations(candidates, size):
                mask = term_mask | sum(1 << v for v in extra)
                if all((adjacency[v] & mask).bit_count() >= 3 for v in extra):
                    expected.append(mask)
            assert _steiner_sets(adjacency, candidates, term_mask, size) == expected

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is in the optional `test` extra
    given = settings = None

if given is not None:
    @st.composite
    def graphs(draw, max_nodes, max_terminals):
        """Random graphs on up to max_nodes nodes with 1 to max_terminals terminals."""
        n = draw(st.integers(1, max_nodes))
        density = draw(st.sampled_from([15, 30, 50, 80]))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if draw(st.integers(0, 99)) < density]
        terminals = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=max_terminals, unique=True)
        )
        return Instance.from_edges(n, edges, terminals)

    # Well inside both oracles' caps.
    within_caps = graphs(max_nodes=14, max_terminals=8)
    oracle_settings = settings(derandomize=True, database=None, deadline=None, max_examples=200)

    @oracle_settings
    @given(within_caps)
    def test_dreyfus_wagner_cost_equals_subset_oracle_cost(inst):
        assert dreyfus_wagner(inst).cost == brute_force_opt(inst).cost

    @oracle_settings
    @given(within_caps)
    def test_isolated_non_terminal_changes_neither_oracle(inst):
        padded = Instance.from_edges(inst.node_count + 1, inst.edges(), inst.terminals)
        assert dreyfus_wagner(padded).cost == dreyfus_wagner(inst).cost
        assert brute_force_opt(padded).cost == brute_force_opt(inst).cost
