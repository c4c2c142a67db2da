import random
from fractions import Fraction

from stp12 import harness, heuristics, sixphase
from stp12.core import (
    Instance,
    PartitionState,
    collapse,
    cost,
    edges_to,
    induced_graph,
    is_valid_solution,
)
from stp12.exact import brute_force_opt
from stp12.harness import finishing_only_solver, full_corpus
from stp12.heuristics import (
    find_max_star,
    finishing,
    preprocess_terminal_edges,
    rayward_smith,
)
from stp12.io import GeneratorSpec, generate
from stp12.sixphase import six_phase


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
    star = find_max_star(PartitionState(inst))
    assert star is not None
    assert star.center == 0 and star.s == 5
    assert star.edges == tuple((0, i) for i in range(1, 6))


def test_find_max_star_prefers_larger():
    # center 0 reaches three terminals, center 1 reaches four
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5)]
    inst = Instance.from_edges(6, edges, [2, 3, 4, 5])
    star = find_max_star(PartitionState(inst))
    assert star.center == 1 and star.s == 4


def test_residual_star_shrinks_after_collapse():
    edges = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5)]
    inst = Instance.from_edges(6, edges, [2, 3, 4, 5])
    state = PartitionState(inst)
    star = find_max_star(state)
    assert star.center == 0 and star.s == 4
    collapse(state, star.touched_components(), star.connections())
    residual = find_max_star(state)
    assert residual is not None and residual.s == 1


def two_edge_component():
    # terminal edges 0-6 and 0-7 make one component {0, 6, 7}; free node 5
    # reaches it by (5, 6) and (5, 7) and also touches terminals 1 and 3;
    # free nodes 2 and 4 touch no terminal
    edges = [(0, 6), (0, 7), (5, 6), (5, 7), (1, 5), (3, 5), (2, 4)]
    inst = Instance.from_edges(8, edges, [0, 1, 3, 6, 7])
    state = preprocess_terminal_edges(PartitionState(inst))
    return inst, state


def test_find_max_star_uses_smallest_edge_into_component():
    inst, state = two_edge_component()
    assert state.view_upkeep().view == {5: {0, 1, 3}}
    # one edge per root, in the order asked for
    assert edges_to(state, 5, (3, 0, 1)) == ((3, 5), (5, 6), (1, 5))
    star = find_max_star(state)
    assert star.center == 5 and star.leaves == (0, 1, 3)
    assert star.edges == ((5, 6), (1, 5), (3, 5))


def test_find_max_star_tie_goes_to_smallest_center():
    # centers 1 and 5 both touch three terminals; 5's leaves sort first
    edges = [(1, 2), (1, 3), (1, 4), (0, 5), (2, 5), (3, 5)]
    inst = Instance.from_edges(6, edges, [0, 2, 3, 4])
    star = find_max_star(PartitionState(inst))
    assert star.center == 1 and star.leaves == (2, 3, 4)


def test_no_star_when_no_free_center():
    inst = Instance.from_edges(2, [(0, 1)], [0, 1])
    assert find_max_star(PartitionState(inst)) is None


def test_preprocess_collapses_adjacent_terminals():
    inst = Instance.from_edges(2, [(0, 1)], [0, 1])
    state = preprocess_terminal_edges(PartitionState(inst))
    assert {state.find(v) for v in range(2)} == {0} and state.cost == 1


def test_preprocess_terminal_path():
    inst = Instance.from_edges(3, [(0, 1), (1, 2)], [0, 1, 2])
    state = preprocess_terminal_edges(PartitionState(inst))
    assert state.cost == 2
    assert {state.find(v) for v in range(3)} == {0}


def test_preprocess_fixed_point_when_nothing_to_do():
    inst = Instance.from_edges(4, [(0, 1)], [2, 3])
    state = preprocess_terminal_edges(PartitionState(inst))
    assert state.cost == 0 and state.connections == []


def two_pass_preprocess(inst, state):
    """Scan every edge in order until a pass collapses nothing."""
    changed = True
    while changed:
        changed = False
        for u, v in inst.edges():
            if u in inst.terminals and v in inst.terminals:
                ru, rv = state.find(u), state.find(v)
                if ru != rv:
                    collapse(state, (ru, rv), ((u, v),))
                    changed = True
    return state


def test_preprocess_matches_the_two_pass_loop():
    cases = [inst for _, inst in full_corpus(seed=0)] + [
        generate(GeneratorSpec("random-gnp", {"n": n, "p": Fraction(4, n), "r": n // d}, n))
        for n in (200, 300, 400)
        for d in (4, 2)
    ]
    for inst in cases:
        want = two_pass_preprocess(inst, PartitionState(inst))
        got = preprocess_terminal_edges(PartitionState(inst))
        assert got.connections == want.connections
        assert got.cost == want.cost


def test_finishing_strict_with_no_edges():
    inst = Instance.from_edges(3, [], [0, 1, 2])
    state = PartitionState(inst)
    assert finishing(state, "strict-paper").cost == 4
    assert finishing(state, "cheapest").cost == 4


def test_finishing_single_component():
    inst = Instance.from_edges(2, [(0, 1)], [0, 1])
    state = preprocess_terminal_edges(PartitionState(inst))
    assert finishing(state, "strict-paper").cost == 1


def test_finishing_cheapest_uses_representative_edge():
    # two merged terminal pairs joined by one inter-component edge
    inst = Instance.from_edges(4, [(1, 2)], [0, 1, 2, 3])
    state = PartitionState(inst)
    collapse(state, [0, 1], [(0, 1)])
    collapse(state, [2, 3], [(2, 3)])
    assert finishing(state, "cheapest").cost - state.cost == 1
    assert finishing(state, "strict-paper").cost - state.cost == 2


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


def test_no_edge_joins_two_terminal_components_after_the_star_loop(monkeypatch):
    # Phase 1 joins every terminal-terminal edge, and every star takes all
    # the terminal components next to its center.  So when RS finishes, no
    # instance edge joins two terminal components, and the cheapest
    # finishing's scan of the component graph finds no edge to take: its
    # `induced_graph` is empty, by its own scan and by a scan of every edge.
    finished = split = 0

    def checked_finishing(state, mode="cheapest"):
        nonlocal finished, split
        assert induced_graph(state) == {}
        split += len(state.terminal_components()) > 1
        for u, v in state.instance.edges():
            ru, rv = state.find(u), state.find(v)
            assert ru == rv or not (
                state.is_terminal_component(ru) and state.is_terminal_component(rv)
            )
        finished += 1
        return finishing(state, mode)

    monkeypatch.setattr(heuristics, "finishing", checked_finishing)
    cases = [inst for _, inst in full_corpus(seed=0)]
    cases += [
        generate(GeneratorSpec("random-gnp", {"n": n, "p": Fraction(4, n), "r": n // 4}, seed))
        for n, seed in ((200, 1), (400, 2), (600, 3), (800, 4))
    ]
    cases.append(generate(
        GeneratorSpec("random-sparse", {"n": 2000, "p": Fraction(4, 1999), "r": 500}, 1)
    ))
    for inst in cases:
        rayward_smith(inst)
    # Over 400 runs leave more than one component, so the check is not vacuous.
    assert finished == len(cases) and split > 300


def test_rs_finishing_modes_agree():
    # With no edge between two terminal components after the star loop (as
    # above), the cheapest finishing takes no edge and chains the same
    # components between the same smallest terminals as strict-paper.
    rng = random.Random(67)
    cases = [inst for _, inst in full_corpus(seed=0)]
    for _ in range(400):
        n = rng.randint(9, 60)
        params = {"n": n, "p": Fraction(rng.choice((2, 3, 4)), n), "r": rng.randint(2, n // 2)}
        cases.append(generate(GeneratorSpec("random-gnp", params, rng.getrandbits(32))))
    cases += [
        generate(GeneratorSpec("random-sparse", {"n": 2000, "p": Fraction(4, 1999), "r": 500}, seed))
        for seed in (1, 2, 3)
    ]
    split = 0
    for inst in cases:
        cheapest = rayward_smith(inst, "cheapest")
        assert cheapest == rayward_smith(inst, "strict-paper")
        # Only finishing adds a non-edge, and only between two components.
        split += any(not inst.has_edge(*c) for c in cheapest.connections)
    assert split > 500, split


def full_scan_terminal_graph(state):
    """The terminal component graph by a scan of every instance edge in order."""
    edges = {}
    for u, v in state.instance.edges():
        ru, rv = state.find(u), state.find(v)
        if ru != rv and state.is_terminal_component(ru) and state.is_terminal_component(rv):
            edges.setdefault((ru, rv) if ru < rv else (rv, ru), (u, v))
    return edges


def test_induced_graph_matches_a_full_edge_scan_wherever_finishing_runs(monkeypatch):
    # After RS and six-phase no edge joins two terminal components on these
    # cases, so only the finishing-only baseline, which skips phase 1,
    # compares graphs with edges.
    checked = nonempty = 0

    def checked_finishing(state, mode="cheapest"):
        nonlocal checked, nonempty
        want = full_scan_terminal_graph(state)
        assert induced_graph(state) == want
        checked += 1
        nonempty += bool(want)
        return finishing(state, mode)

    monkeypatch.setattr(heuristics, "finishing", checked_finishing)
    monkeypatch.setattr(sixphase, "finishing", checked_finishing)
    monkeypatch.setattr(harness, "finishing", checked_finishing)
    cases = [(inst, "exact") for _, inst in full_corpus(seed=0)]
    cases += [
        (generate(GeneratorSpec("random-gnp", {"n": n, "p": Fraction(4, n), "r": n // 4}, seed)),
         "greedy")
        for n, seed in ((200, 1), (400, 2), (600, 3), (800, 4))
    ]
    for inst, pack3 in cases:
        rayward_smith(inst)
        six_phase(inst, pack3=pack3)
        finishing_only_solver(inst, "cheapest")
    assert checked == 3 * len(cases)
    assert nonempty > 100


def test_induced_graph_matches_a_full_edge_scan_without_phase_1():
    # Random merges, each joining a terminal component to any other
    # component along an edge or a non-edge, with terminal-terminal edges
    # left between components.
    rng = random.Random(61)
    nonempty = 0
    for _ in range(300):
        inst = random_instance(rng, max_nodes=14, max_terminals=10)
        state = PartitionState(inst)
        assert induced_graph(state) == full_scan_terminal_graph(state)
        for _ in range(rng.randint(1, 6)):
            roots = sorted({state.find(v) for v in range(inst.node_count)})
            if len(roots) < 2:
                break
            a = rng.choice(state.terminal_components())
            b = rng.choice([r for r in roots if r != a])
            u = rng.choice([x for x in range(inst.node_count) if state.find(x) == a])
            v = rng.choice([x for x in range(inst.node_count) if state.find(x) == b])
            collapse(state, [a, b], [(u, v)])
            want = full_scan_terminal_graph(state)
            assert induced_graph(state) == want
            nonempty += bool(want)
    assert nonempty > 100
