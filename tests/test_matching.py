import random
from functools import lru_cache

import pytest

from stp12.core import InputError
from stp12.matching import AuxGraph, Matching, max_matching


def aux(edge_list):
    return AuxGraph.build(tuple(e) for e in edge_list)


def brute_force_matching_size(n, edges):
    """DP over vertex subsets; exact maximum matching size for n <= ~20."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    @lru_cache(maxsize=None)
    def best(mask):
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        result = best(mask & ~(1 << v))
        avail = adj[v] & mask
        while avail:
            low = avail & -avail
            u = low.bit_length() - 1
            result = max(result, 1 + best(mask & ~(1 << v) & ~low))
            avail ^= low
        return result

    return best((1 << n) - 1)


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def test_triangle_matches_one():
    m = max_matching(aux([(0, 1), (1, 2), (0, 2)]))
    assert len(m) == 1


def test_path_on_four_matches_two():
    m = max_matching(aux([(0, 1), (1, 2), (2, 3)]))
    assert len(m) == 2
    assert m.pairs == {(0, 1), (2, 3)}


def test_petersen_has_perfect_matching():
    edges = petersen_edges()
    assert brute_force_matching_size(10, edges) == 5
    assert len(max_matching(aux(edges))) == 5


def test_empty_graph():
    assert len(max_matching(AuxGraph.build([]))) == 0


def test_odd_cycles():
    for k in (3, 5, 7, 9):
        cycle = [(i, (i + 1) % k) for i in range(k)]
        assert len(max_matching(aux(cycle))) == k // 2


def test_two_triangles_joined_by_bridge():
    # Needs blossom contraction to see the size-3 matching.
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    assert len(max_matching(aux(edges))) == 3


def test_matching_validates_disjointness():
    with pytest.raises(InputError):
        Matching(frozenset({(0, 1), (1, 2)}))


def test_aux_graph_normalizes_and_annotates():
    g = AuxGraph.build([(5, 2), (2, 8), (2, 5)])
    assert g.vertices == (2, 5, 8)
    assert g.edges == ((2, 5), (2, 8))


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(1, 12)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.15, 0.3, 0.6])
        ]
        got = len(max_matching(aux(edges))) if edges else 0
        want = brute_force_matching_size(n, edges)
        assert got == want, (n, edges)


def test_deterministic_output():
    rng = random.Random(5)
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if rng.random() < 0.4]
    first = max_matching(aux(edges))
    second = max_matching(aux(edges))
    assert first.pairs == second.pairs
