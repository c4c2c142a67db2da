import random
from fractions import Fraction

import pytest

from stp12 import sixphase
from stp12.core import (
    CapExceeded,
    ContractViolation,
    InputError,
    Instance,
    PartitionState,
    cost,
    induced_graph,
    is_valid_solution,
)
from stp12.exact import brute_force_opt
from stp12.harness import cold_min_cost_index, exhaustive_min_cost_index
from stp12.heuristics import Star, finishing, preprocess_terminal_edges, rayward_smith
from stp12.io import GeneratorSpec, generate
from stp12.sixphase import (
    Comet,
    Fork,
    PACK3_STRATEGIES,
    _comet_at,
    _comet_shape,
    best_comet,
    build_fork_candidates,
    cost_index,
    max_3star_set,
    six_phase,
    star_cost_index,
    structure_cost_index,
    upgrade_to_comets,
)
from test_packing_reference import after_phase_three, triple_gadget


def fresh_state(inst):
    state = PartitionState(inst)
    preprocess_terminal_edges(state)
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


def test_every_comet_best_comet_can_score_loses_to_a_3_star():
    # best_comet returns a star of s >= 3 before it scores any comet.  That
    # loses nothing: every comet `_comet_at` builds has a >= 1 and b <= 2.
    for b in range(3):
        directs = tuple(range(200, 200 + b))
        for a in range(1, 65):
            forks = tuple(
                Fork(node=f, leaves=(1000 + 2 * f, 1001 + 2 * f),
                     edges=((0, f), (f, 1000 + 2 * f), (f, 1001 + 2 * f)))
                for f in range(1, a + 1)
            )
            comet = Comet(center=0, directs=directs,
                          direct_edges=tuple((0, d) for d in directs), forks=forks)
            assert comet.cost_index > star_cost_index(3)


def test_a_matched_pair_with_two_fork_nodes_takes_the_smaller():
    # center 0 with directs 3, 4; fork nodes 1 and 2 both reach terminals 5
    # and 6, so the matched pair (5, 6) can be served by either
    edges = [(0, 3), (0, 4), (0, 1), (0, 2), (1, 5), (1, 6), (2, 5), (2, 6)]
    inst = Instance.from_edges(7, edges, [3, 4, 5, 6])
    state = fresh_state(inst)
    assert build_fork_candidates(inst, state.view_upkeep().view, 0) == {(5, 6): [1, 2]}
    assert [fork.node for fork in _comet_at(state, 0).forks] == [1]
    assert six_phase(inst).connections == {(0, 1), (0, 3), (0, 4), (1, 5), (1, 6)}


def test_comet_shape_matches_the_comet_built():
    # Center 0 with direct terminal 1.  Fork nodes 2-5 serve the pairs
    # (6, 7), (7, 8), (8, 9) and (6, 9): a 4-cycle, so a = 2 and the shape
    # runs the matching.  With fork node 2 alone there is one pair and none.
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
             (2, 6), (2, 7), (3, 7), (3, 8), (4, 8), (4, 9), (5, 6), (5, 9)]
    terminals = [1, 6, 7, 8, 9]
    for forks, shape in (((2, 3, 4, 5), (2, 1)), ((2,), (1, 1)), ((), None)):
        kept = [(u, v) for u, v in edges if not ({u, v} & ({2, 3, 4, 5} - set(forks)))]
        inst = Instance.from_edges(10, kept, terminals)
        state = fresh_state(inst)
        comet = _comet_at(state, 0)
        assert _comet_shape(inst, state.view_upkeep().view, 0) == shape
        assert shape == (None if comet is None else (comet.a, comet.b))


def test_cheapest_finishing_takes_the_edge_between_two_packed_3_stars(monkeypatch):
    # Found by a fixed-seed search of random-gnp runs with n <= 60 for one
    # where cheapest finishing beats strict-paper, random-gnp(n=36, p=1/10,
    # r=10, seed=2491001743), and shrunk by harness.minimize_instance.  The
    # adjacent centers 0 and 7 carry three terminals each.  Phase 4 packs
    # both 3-stars and phase 5 collapses them together, so the edge (0, 7)
    # joins two terminal components and only finishing can take it.
    edges = [(0, 2), (0, 4), (0, 6), (0, 7), (1, 7), (3, 7), (5, 7)]
    inst = Instance.from_edges(8, edges, [1, 2, 3, 4, 5, 6])
    graphs = []

    def recorded_finishing(state, mode="cheapest"):
        graphs.append(induced_graph(state))
        return finishing(state, mode)

    monkeypatch.setattr(sixphase, "finishing", recorded_finishing)
    for pack3 in PACK3_STRATEGIES:
        graphs.clear()
        cheapest = six_phase(inst, pack3=pack3)
        strict = six_phase(inst, mode="strict-paper", pack3=pack3)
        assert graphs == [{(0, 1): (0, 7)}] * 2
        assert (0, 7) in cheapest.connections and (0, 7) not in strict.connections
        assert (cheapest.cost, strict.cost) == (7, 8)


def test_comet_rejects_shared_components():
    fork = Fork(node=1, leaves=(2, 5), edges=((0, 1), (1, 2), (1, 5)))
    with pytest.raises(InputError):
        Comet(center=0, directs=(2, 3), direct_edges=((0, 2), (0, 3)), forks=(fork,))


def test_best_comet_finds_1_2_comet():
    inst = comet_gadget_1_2()
    state = fresh_state(inst)
    structure = best_comet(state)
    assert isinstance(structure, Comet)
    assert (structure.a, structure.b) == (1, 2)
    assert structure_cost_index(structure) == Fraction(2, 3)
    assert exhaustive_min_cost_index(state) == Fraction(2, 3)


def test_best_comet_fork_uses_smallest_edge_into_component():
    # center 0 with directs 2, 3; fork 1 reaches terminal 4 and the terminal
    # component {5, 6, 7}, through (1, 6) and (1, 7)
    edges = [(0, 2), (0, 3), (0, 1), (1, 4), (1, 6), (1, 7), (5, 6), (5, 7)]
    inst = Instance.from_edges(8, edges, [2, 3, 4, 5, 6, 7])
    structure = best_comet(fresh_state(inst))
    assert isinstance(structure, Comet) and structure.center == 0
    assert structure.forks == (Fork(node=1, leaves=(4, 5), edges=((0, 1), (1, 4), (1, 6))),)


def test_best_comet_finds_3_0_comet_at_terminal_free_center():
    # center 0 touches no terminal; forks 1, 2, 3 each reach two terminals
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]
    inst = Instance.from_edges(10, edges, range(4, 10))
    state = fresh_state(inst)
    structure = best_comet(state)
    assert isinstance(structure, Comet) and structure.center == 0
    assert (structure.a, structure.b) == (3, 0)
    assert structure.cost_index == Fraction(4, 5) == exhaustive_min_cost_index(state)


def test_best_comet_prefers_large_star():
    # center 0 carries four directs; the comet option has a worse index
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (5, 7)]
    inst = Instance.from_edges(8, edges, [1, 2, 3, 4, 6, 7])
    state = fresh_state(inst)
    structure = best_comet(state)
    assert isinstance(structure, Star)
    assert structure.s == 4
    assert structure_cost_index(structure) == Fraction(1, 3)


def test_best_comet_absent_without_structures():
    inst = Instance.from_edges(3, [], [0, 1, 2])
    assert best_comet(PartitionState(inst)) is None


def test_best_comet_fork_exclusivity_fallback():
    # one physical fork 1 serves every pair among terminals 2..5, so only a
    # single fork can be realized even though the pair matching has size 2;
    # fork 1 is a 4-star, which beats any comet at 0
    edges = [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (0, 6), (0, 7)]
    inst = Instance.from_edges(8, edges, [2, 3, 4, 5, 6, 7])
    state = fresh_state(inst)
    structure = best_comet(state)
    want = exhaustive_min_cost_index(state)
    assert structure is not None
    assert structure_cost_index(structure) == want
    if isinstance(structure, Comet):
        assert structure.a <= 1


def test_best_comet_matches_enumeration_randomized():
    # best_comet gives the exhaustive minimum when it is below 1 and None
    # otherwise; the cold search gives the minimum itself.
    rng = random.Random(61)
    below = declined = 0
    for _ in range(120):
        inst = random_instance(rng)
        state = fresh_state(inst)
        structure = best_comet(state)
        got = None if structure is None else structure_cost_index(structure)
        want = exhaustive_min_cost_index(state)
        assert cold_min_cost_index(state) == want
        if want is not None and want < 1:
            assert got == want
            below += 1
        else:
            assert got is None
            declined += want is not None
    assert below > 0 and declined > 10


def test_max_3star_set_two_disjoint():
    edges = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]
    inst = Instance.from_edges(8, edges, [1, 2, 3, 5, 6, 7])
    stars = max_3star_set(PartitionState(inst))
    assert len(stars) == 2


def test_max_3star_set_overlap_allows_one():
    # both centers need terminal 3
    edges = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (1, 6)]
    inst = Instance.from_edges(7, edges, [2, 3, 4, 5, 6])
    stars = max_3star_set(PartitionState(inst))
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
    exact = max_3star_set(state, "exact")
    greedy = max_3star_set(state, "greedy")
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


def test_max_3star_set_uses_smallest_edge_into_component():
    # free node 5 reaches the terminal component {0, 6, 7} by (5, 6) and (5, 7)
    edges = [(0, 6), (0, 7), (5, 6), (5, 7), (1, 5), (3, 5)]
    inst = Instance.from_edges(8, edges, [0, 1, 3, 6, 7])
    stars = max_3star_set(fresh_state(inst))
    assert stars == (Star(5, (0, 1, 3), ((5, 6), (1, 5), (3, 5))),)


def test_max_3star_set_ignores_view_insertion_order():
    # The kept view iterates centers in the order merges left them; the
    # packing must be the one read off an ascending view.  The greedy trap
    # packs differently when centers are scanned from 2 down.
    trap = [(0, 3), (0, 5), (0, 7), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8)]
    rng = random.Random(83)
    instances = [Instance.from_edges(9, trap, [3, 4, 5, 6, 7, 8])]
    instances += [random_instance(rng, max_nodes=14, max_terminals=9) for _ in range(150)]
    instances += [triple_gadget(rng) for _ in range(100)]
    for inst in instances:
        for strategy in ("exact", "greedy"):
            want = max_3star_set(after_phase_three(inst), strategy)
            for shuffle in (list.reverse, rng.shuffle):
                state = after_phase_three(inst)
                view = state.view_upkeep().view
                items = list(view.items())
                shuffle(items)
                view.clear()
                view.update(items)
                assert max_3star_set(state, strategy) == want


def star_instance(leaves):
    edges = [(0, i) for i in range(1, leaves + 1)]
    return Instance.from_edges(leaves + 1, edges, range(1, leaves + 1))


def disjoint_3_stars(count):
    return generate(GeneratorSpec("comet-chain", {"a": 0, "b": 3, "count": count}))


def test_max_3star_set_refuses_an_entry_of_four_roots():
    # Phases 2-3 leave no star with s >= 4, so phase 4 never meets one.
    for strategy in PACK3_STRATEGIES:
        with pytest.raises(ContractViolation, match="4-star at 0"):
            max_3star_set(PartitionState(star_instance(4)), strategy)


def test_max_3star_set_cap_refusal():
    # 513 disjoint 3-stars, one candidate each, above the cap of 512.
    inst = disjoint_3_stars(513)
    assert len(max_3star_set(PartitionState(inst), "greedy")) == 513
    with pytest.raises(CapExceeded, match="513 candidates > cap 512"):
        max_3star_set(PartitionState(inst), "exact")


def test_max_3star_set_greedy_packs_every_disjoint_triple():
    # 2000 triples, about four times the exact strategy's cap: the first fit is a
    # loop, so no recursion limit is met.
    state = PartitionState(disjoint_3_stars(2000))
    view = state.view_upkeep().view
    stars = max_3star_set(state, "greedy")
    assert [star.center for star in stars] == sorted(view)
    assert all(star.leaves == tuple(sorted(view[star.center])) for star in stars)


def test_upgrade_unchanged_without_fork():
    inst = Instance.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 3])
    state = PartitionState(inst)
    stars = max_3star_set(state)
    assert upgrade_to_comets(state, stars) == stars


def test_upgrade_builds_1_3_comet():
    inst = comet_gadget_1_3()
    state = fresh_state(inst)
    stars = max_3star_set(state)
    assert len(stars) == 1
    upgraded = upgrade_to_comets(state, stars)
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
    stars = max_3star_set(state)
    assert len(stars) == 2
    upgraded = upgrade_to_comets(state, stars)
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


# Complete logs, which `compare` reports carry: (family, params) -> (six-phase, RS)
PINNED_LOGS = {
    ("star-cluster", (("k", 5), ("m", 2))): (
        [
            "phase 1 terminal edges: cost 1",
            "phase 2 collapse 5-star at 0: cost 6",
            "phase 2 collapse 5-star at 6: cost 11",
            "phase 4 packed 0 disjoint 3-stars (exact)",
            "phase 5 upgraded 0 to (1,3)-comets: cost 11",
            "finishing (cheapest): cost 11",
        ],
        [
            "preprocessing: cost 1",
            "collapse 5-star at 0: cost 6",
            "collapse 5-star at 6: cost 11",
            "finishing (cheapest): cost 11",
        ],
    ),
    ("star-cluster", (("k", 4), ("m", 2))): (
        [
            "phase 1 terminal edges: cost 1",
            "phase 3 collapse 4-star at 0: cost 5",
            "phase 3 collapse 4-star at 5: cost 9",
            "phase 4 packed 0 disjoint 3-stars (exact)",
            "phase 5 upgraded 0 to (1,3)-comets: cost 9",
            "finishing (cheapest): cost 9",
        ],
        [
            "preprocessing: cost 1",
            "collapse 4-star at 0: cost 5",
            "collapse 4-star at 5: cost 9",
            "finishing (cheapest): cost 9",
        ],
    ),
    ("comet-chain", (("a", 2), ("b", 2), ("count", 2))): (
        [
            "phase 1 terminal edges: cost 0",
            "phase 4 packed 0 disjoint 3-stars (exact)",
            "phase 5 upgraded 0 to (1,3)-comets: cost 0",
            "phase 6 collapse comet ci=3/5: cost 8",
            "phase 6 collapse comet ci=3/5: cost 16",
            "finishing (cheapest): cost 18",
        ],
        [
            "preprocessing: cost 0",
            "finishing (cheapest): cost 22",
        ],
    ),
}


@pytest.mark.parametrize("family, params", list(PINNED_LOGS))
def test_logs_are_pinned_and_change_no_solution(family, params):
    inst = generate(GeneratorSpec(family, dict(params)))
    for solve, want in zip((six_phase, rayward_smith), PINNED_LOGS[family, params]):
        log: list[str] = []
        got = solve(inst, log=log)
        assert log == want
        assert got == solve(inst)


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
