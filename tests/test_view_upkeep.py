"""The terminal view kept by PartitionState against a from-scratch rebuild.

The view is built on its first read and then updated by every merge; these
tests rebuild it from the whole graph after each merge and compare, check
every representative edge `edges_to` gives against a plain scan, check
that the merge reports reshaped the closed neighbourhood of every entry it
changed and that every free center it leaves out keeps its comet sort key,
check the phase-6 comet cache against the exhaustive enumeration, a cold
search and a fresh scoring of every center six-phase can score (one whose
closed neighbourhood holds entries of at most two roots), and check the
star heap and the least cached comet key against a linear scan of the
view and the cache.
`best_comet` looks only for a structure with cost index below 1, and the
cache keeps only those comets; the cold search of the largest star and
every center's comet must still reach the unrestricted minimum.
"""

import random
from fractions import Fraction

from stp12 import heuristics, sixphase
from stp12.core import Instance, PartitionState, collapse, connection, edges_to
from stp12.harness import cold_min_cost_index, exhaustive_min_cost_index, full_corpus
from stp12.heuristics import rayward_smith
from stp12.io import GeneratorSpec, generate
from stp12.heuristics import Star, find_max_star
from stp12.sixphase import _comet_at, _comet_shape, best_comet, six_phase


def reference_edges(state, v):
    """Each terminal root next to v, with v's edge to its smallest neighbour there.

    A plain ascending scan of v's neighbours in which the first edge wins.
    """
    reps = {}
    for u in state.instance.neighbors(v):
        root = state.find(u)
        if root not in reps and state.is_terminal_component(root):
            reps[root] = connection(v, u)
    return reps


def reference_view(inst, state):
    """The view rebuilt from the whole graph."""
    view = {}
    for v in range(inst.node_count):
        if not state.is_terminal_component(v) and (reps := reference_edges(state, v)):
            view[v] = set(reps)
    return view


def edge_view(state):
    """The kept view with the edge `edges_to` gives for each of its roots."""
    view = state.view_upkeep().view
    return {v: dict(zip(sorted(reps), edges_to(state, v, sorted(reps))))
            for v, reps in view.items()}


def check_representative_edges(state):
    """Every (v, r) of the kept view has edge v joined to its smallest neighbour in r."""
    assert edge_view(state) == {v: reference_edges(state, v) for v in state.view_upkeep().view}


def free_nodes(inst, state):
    return {v for v in range(inst.node_count) if not state.is_terminal_component(v)}


def comet_keys(inst, state):
    """Cost index and terminal count of the best comet at every center six-phase can score.

    Phase 6 scores comets only when every entry holds at most two roots, and
    `_comet_at` refuses a center whose closed neighbourhood holds a larger
    entry; such centers are left out.
    """
    view = state.view_upkeep().view
    keys = {}
    for center in free_nodes(inst, state):
        if any(len(view.get(v, ())) > 2 for v in (center, *inst.neighbors(center))):
            continue
        comet = _comet_at(state, center)
        if comet is not None:
            keys[center] = (comet.cost_index, -(2 * comet.a + comet.s))
    return keys


def below_one(keys):
    """The keys of comets with cost index below 1, the only ones phase 6 keeps."""
    return {c: key for c, key in keys.items() if key[0] < 1}


def fork_count(view, inst, center):
    """m: the center's neighbours whose entry holds two or more roots."""
    return sum(len(view.get(f, ())) >= 2 for f in inst.neighbors(center))


def closed_neighbourhoods(inst, nodes):
    return {u for v in nodes for u in (v, *inst.neighbors(v))}


def checked_merge(inst, state, merge):
    """Run merge() and check the kept view and the centers it reports reshaped.

    The kept view must equal a rebuild, and each of its edges a plain scan.
    Once the comet cache exists, `reshaped` must hold the closed
    neighbourhood of every node whose entry the merge changed, added or
    removed, and every free center left out of it must score the same
    before and after the merge.
    """
    upkeep = state.view_upkeep()
    if upkeep.comets is not None:
        old = {v: set(reps) for v, reps in upkeep.view.items()}
        before = comet_keys(inst, state)
    result = merge()
    assert state.view_upkeep() is upkeep
    view = upkeep.view
    assert view == reference_view(inst, state)
    check_representative_edges(state)
    if upkeep.comets is not None:
        changed = {v for v in old.keys() | view.keys() if old.get(v) != view.get(v)}
        assert closed_neighbourhoods(inst, changed) <= upkeep.reshaped
        after = comet_keys(inst, state)
        kept = free_nodes(inst, state) - upkeep.reshaped
        assert not {c for c in kept if after.get(c) != before.get(c)}
    return result


def replayed(state):
    """A state with the same partition whose view and comet cache are cold.

    Each union must touch a terminal component, so a connection between two
    free nodes waits until one of them has joined one; the partition and
    its roots do not depend on the order of the unions.
    """
    fresh = PartitionState(state.instance)
    pending = list(state.connections)
    while pending:
        waiting = []
        for u, v in pending:
            if fresh.is_terminal_component(u) or fresh.is_terminal_component(v):
                fresh.union(u, v)
            else:
                waiting.append((u, v))
        assert len(waiting) < len(pending)
        pending = waiting
    return fresh


def component_roots(state):
    return sorted({state.find(v) for v in range(state.instance.node_count)})


def gnp_instances():
    return [
        generate(GeneratorSpec("random-gnp", {"n": n, "p": Fraction(4, n), "r": n // 4}, seed))
        for n, seed in ((200, 1), (300, 2), (400, 3))
    ]


def larger_gnp_instances():
    # Larger instances re-root big components, which renames many roots.
    # On (800, 4) phase 6 also grows entries to 4 roots.
    return [
        generate(GeneratorSpec("random-gnp", {"n": n, "p": Fraction(4, n), "r": n // 4}, seed))
        for n, seed in ((600, 4), (800, 5), (800, 4))
    ]


def corpus_and_gnp():
    return [(inst, "exact") for _, inst in full_corpus(seed=0)] + [
        (inst, "greedy") for inst in gnp_instances()
    ]


def test_kept_view_matches_rebuild_after_every_collapse(monkeypatch):
    # Every merge is checked, the direct unions of phase 1 as well as the
    # collapses of the later phases.
    cases = corpus_and_gnp()
    expected = [(rayward_smith(inst), six_phase(inst, pack3=pack3)) for inst, pack3 in cases]
    merge = PartitionState.merge
    merges = terminal_only = 0

    def checked(state, roots):
        nonlocal merges, terminal_only
        roots = list(roots)
        merges += 1
        # Stars and comets merge a free center; phase 1 merges only terminals.
        terminal_only += all(state.is_terminal_component(r) for r in roots)
        # Reading the view first makes it exist from phase 1 on.
        state.view_upkeep()
        return checked_merge(state.instance, state, lambda: merge(state, roots))

    monkeypatch.setattr(PartitionState, "merge", checked)
    for (inst, pack3), (rs, sp) in zip(cases, expected):
        assert rayward_smith(inst) == rs
        assert six_phase(inst, pack3=pack3) == sp
    assert 0 < terminal_only < merges


def test_cached_best_comet_matches_enumeration_and_cold_search(monkeypatch):
    # best_comet gives the exhaustive minimum when it is below 1 and None
    # otherwise; the cold search gives the minimum itself on every state.
    steps = declined = 0

    def checked_best_comet(state):
        nonlocal steps, declined
        got = best_comet(state)
        assert got == best_comet(replayed(state))
        want = exhaustive_min_cost_index(state)
        assert cold_min_cost_index(state) == want
        if want is not None and want < 1:
            assert got.cost_index == want
        else:
            assert got is None
            declined += want is not None
        steps += 1
        return got

    monkeypatch.setattr(sixphase, "best_comet", checked_best_comet)
    for inst, pack3 in corpus_and_gnp():
        six_phase(inst, pack3=pack3)
    assert steps > 1033 and declined > 100


def test_comet_cache_matches_a_fresh_scoring_at_every_step(monkeypatch):
    # A call leaves the cache absent, or `reshaped` unscored, only when a
    # star of s >= 3 wins it; the kept keys outside `reshaped` must equal
    # a fresh scoring's keys below 1 at every step, and every other call
    # scores all of `reshaped`.
    steps = 0

    def outside_reshaped(keys, upkeep):
        return {c: key[:2] for c, key in keys.items() if c not in upkeep.reshaped}

    def checked_best_comet(state):
        nonlocal steps
        inst = state.instance
        upkeep = state.view_upkeep()
        got = best_comet(state)
        steps += 1
        star_won = got is not None and not got.forks and got.s >= 3
        if upkeep.comets is None:
            assert star_won
            return got
        fresh = below_one(comet_keys(inst, state))
        assert outside_reshaped(upkeep.comets, upkeep) == outside_reshaped(fresh, upkeep)
        assert all(key[2] == c and key[0] < 1 for c, key in upkeep.comets.items())
        if star_won:
            return got
        assert not upkeep.reshaped
        assert {c: key[:2] for c, key in upkeep.comets.items()} == fresh
        return got

    monkeypatch.setattr(sixphase, "best_comet", checked_best_comet)
    for inst, pack3 in corpus_and_gnp() + [(inst, "greedy") for inst in larger_gnp_instances()]:
        six_phase(inst, pack3=pack3)
    assert steps > 1033


def test_first_comet_scoring_skips_only_centers_that_cannot_go_below_1(monkeypatch):
    # A comet needs a fork, a neighbour whose entry holds two or more roots,
    # and a comet with a forks and b directs has index below 1 only when
    # a + b >= 3.  A center has a <= m, its neighbours with two or more
    # roots.  So the first call scores exactly the free centers with
    # b + m >= 3, and every free center it skips has no comet or one of
    # index 1 or more.
    free = skipped = skipped_with_comet = 0
    scored = set()

    def recorded_comet_shape(inst, view, center):
        scored.add(center)
        return _comet_shape(inst, view, center)

    def checked_best_comet(state):
        nonlocal free, skipped, skipped_with_comet
        inst = state.instance
        upkeep = state.view_upkeep()
        if upkeep.comets is not None:
            return best_comet(state)
        view = upkeep.view
        centers = free_nodes(inst, state)
        wanted = {c for c in centers if len(view.get(c, ())) + fork_count(view, inst, c) >= 3}
        scored.clear()
        got = best_comet(state)
        if upkeep.comets is None:   # a star of s >= 3 won and nothing was scored
            assert not scored
            return got
        for center in centers - wanted:
            comet = _comet_at(state, center)
            assert comet is None or comet.cost_index >= 1
            skipped_with_comet += comet is not None
        free += len(centers)
        skipped += len(centers - wanted)
        assert scored == wanted
        return got

    monkeypatch.setattr(sixphase, "_comet_shape", recorded_comet_shape)
    monkeypatch.setattr(sixphase, "best_comet", checked_best_comet)
    for inst, pack3 in corpus_and_gnp() + [(inst, "greedy") for inst in larger_gnp_instances()]:
        six_phase(inst, pack3=pack3)
    assert skipped > free // 2 and skipped_with_comet > 0


def test_merge_reshapes_the_neighbourhoods_it_visits():
    # Terminals 0, 4, 7, 8, 9.  Node 1 touches 0 and 4; node 2 touches 0
    # and its neighbour 3 touches 4; node 6 touches 4 and 8 and forks for
    # the center 5, which touches 7 and 9: a (1,2)-comet of index 2/3.
    # (Node 6 centers the mirrored comet, which ties and loses on its id.)
    edges = [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4), (4, 6), (5, 6), (5, 7), (6, 8), (5, 9)]
    inst = Instance.from_edges(10, edges, [0, 4, 7, 8, 9])
    state = PartitionState(inst)
    before = best_comet(state)
    assert before.center == 5 and (before.a, before.s) == (1, 2)
    assert before.forks[0].leaves == (4, 8)
    upkeep = state.view_upkeep()

    kept = upkeep.comets[5]
    assert checked_merge(inst, state, lambda: state.union(0, 4))
    # The merge visits 1, 3 and 6, whose entries held 4, and not 2, whose
    # entry holds the kept root 0.  6 only sees 4 renamed to 0, yet its
    # neighbour 5 is scored again.
    assert upkeep.reshaped == {0, 1, 2, 3, 4, 5, 6, 8}
    after = best_comet(state)
    assert after.center == 5 and after.forks[0].leaves == (0, 8)
    cold = PartitionState(inst)
    cold.union(0, 4)
    assert after == best_comet(cold)
    assert upkeep.comets[5] == kept == (Fraction(2, 3), -4, 5)

    # A node 10 joining the center to 0 makes it see two merged roots.
    inst = Instance.from_edges(11, edges + [(5, 10), (10, 0)], [0, 4, 7, 8, 9])
    state = PartitionState(inst)
    best_comet(state)
    state.union(0, 4)
    assert 5 in state.view_upkeep().reshaped


def test_an_entry_that_only_moves_its_edge_reshapes_its_neighbourhood():
    # {0, 5} keeps its name when the star at 1 joins it to terminal 6.  Node
    # 3 reached {0, 5} through 5 and now through the smaller absorbed 1: its
    # entry keeps its one root, and only the edge `edges_to` gives moves.
    # The merge still visits 3, as a neighbour of an absorbed node: the
    # centers around 1 are reshaped, and so are those around 3, down to its
    # neighbour 8, which sees no absorbed node.
    edges = [(0, 1), (1, 6), (3, 5), (1, 3), (0, 5), (3, 8)]
    inst = Instance.from_edges(9, edges, [0, 5, 6])
    state = PartitionState(inst)
    state.union(0, 5)
    best_comet(state)
    upkeep = state.view_upkeep()
    assert edge_view(state) == {1: {0: (0, 1), 6: (1, 6)}, 3: {0: (3, 5)}}
    checked_merge(inst, state, lambda: state.merge([0, 1, 6]))
    assert edge_view(state) == {3: {0: (1, 3)}}
    assert upkeep.reshaped == {0, 1, 3, 5, 6, 8}


def test_views_read_without_comets_sort_nothing():
    inst = gnp_instances()[0]
    state = PartitionState(inst)
    state.view_upkeep()
    merges = 0
    for u, v in inst.edges():
        if state.is_terminal_component(u) != state.is_terminal_component(v):
            merges += state.union(u, v)
    upkeep = state.view_upkeep()
    assert merges > 10
    assert not upkeep.reshaped


def test_random_unions_and_collapses_keep_the_view():
    # Each merge joins a terminal component to any other component, also
    # before the view is first read.
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(2, 14)
        p = rng.choice([0.2, 0.35, 0.6])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        inst = Instance.from_edges(n, edges, rng.sample(range(n), rng.randint(1, n)))
        state = PartitionState(inst)
        read_at = rng.randint(0, 4)
        for step in range(rng.randint(1, 8)):
            if step == read_at:
                assert state.view_upkeep().view == reference_view(inst, state)
                check_representative_edges(state)
            roots = component_roots(state)
            if len(roots) < 2:
                break
            a = rng.choice(state.terminal_components())
            b = rng.choice([r for r in roots if r != a])
            if rng.random() < 0.5:
                a, b = b, a
            u = rng.choice([x for x in range(n) if state.find(x) == a])
            v = rng.choice([x for x in range(n) if state.find(x) == b])
            if rng.random() < 0.5:
                merge = lambda: state.union(u, v)
            else:
                merge = lambda: collapse(state, [a, b], [(u, v)])
            if step > read_at:
                checked_merge(inst, state, merge)
            else:
                merge()
        assert state.view_upkeep().view == reference_view(inst, state)


def test_direct_union_updates_a_read_view():
    # path 0-1-2-3-4 with 1-5 and 2-6; terminals 0 and 4.  Node 6 becomes
    # a comet center once 2 touches two terminal components.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6)]
    inst = Instance.from_edges(7, edges, [0, 4])
    state = PartitionState(inst)
    assert edge_view(state) == {1: {0: (0, 1)}, 3: {4: (3, 4)}}
    assert best_comet(state) is None

    assert checked_merge(inst, state, lambda: state.union(1, 0))
    assert edge_view(state) == {2: {0: (1, 2)}, 3: {4: (3, 4)}, 5: {0: (1, 5)}}

    # a free node into a terminal component, then one into the merged one
    best_comet(state)
    assert checked_merge(inst, state, lambda: state.union(3, 4))
    assert edge_view(state) == {2: {0: (1, 2), 3: (2, 3)}, 5: {0: (1, 5)}}
    assert checked_merge(inst, state, lambda: state.union(5, 3))
    assert edge_view(state) == {2: {0: (1, 2), 3: (2, 3)}}
    # around the absorbed 3 and 5, and around 2, which gained a root
    assert state.view_upkeep().reshaped == {1, 2, 3, 4, 5, 6}
    assert not checked_merge(inst, state, lambda: state.union(5, 4))


def linear_star(state):
    """Largest entry of the view by a full scan; ties to the smallest center."""
    view = state.view_upkeep().view
    if not view:
        return None
    center = max(view, key=lambda c: (len(view[c]), -c))
    reps = reference_edges(state, center)
    leaves = tuple(sorted(reps))
    return Star(center, leaves, tuple(reps[r] for r in leaves))


def test_heaps_match_a_linear_scan_at_every_step(monkeypatch):
    stars = comets = 0

    def checked_find_max_star(state, min_s):
        nonlocal stars
        got = find_max_star(state, min_s)
        want = linear_star(state)
        assert got == (want if want is not None and want.s >= min_s else None)
        stars += 1
        return got

    def checked_best_comet(state):
        nonlocal comets
        got = best_comet(state)
        upkeep = state.view_upkeep()
        star = linear_star(state)
        comets += 1
        if star is not None and star.s >= 3:
            assert got == star
            return got
        # No star of s >= 3: the cache exists, and the least kept key wins.
        want = min(upkeep.comets.values(), default=None)
        if want is None:
            assert got is None
        else:
            assert want[0] < 1
            assert got == _comet_at(state, want[2])
            assert (got.cost_index, -(2 * got.a + got.s)) == want[:2]
        return got

    monkeypatch.setattr(heuristics, "find_max_star", checked_find_max_star)
    monkeypatch.setattr(sixphase, "find_max_star", checked_find_max_star)
    monkeypatch.setattr(sixphase, "best_comet", checked_best_comet)
    larger = [
        generate(GeneratorSpec("random-gnp", {"n": n, "p": Fraction(4, n), "r": n // 4}, seed))
        for n, seed in ((600, 4), (800, 5))
    ]
    sparse = generate(
        GeneratorSpec("random-sparse", {"n": 2000, "p": Fraction(4, 1999), "r": 500}, 1)
    )
    cases = corpus_and_gnp() + [(inst, "greedy") for inst in larger + [sparse]]
    for inst, pack3 in cases:
        rayward_smith(inst)
        six_phase(inst, pack3=pack3)
    assert stars > 2000 and comets > 1033


def test_kept_root_visits_only_what_the_merge_changes():
    # Terminal component {0, 5} keeps its name when the star at 1 joins it
    # to terminal 6.  Node 2 touches only 0 among the merged roots and no
    # absorbed node, so its entry is left alone; node 3 reaches {0, 5}
    # through 5 and now through the smaller absorbed 1; node 4 held both 0
    # and 6.
    edges = [(0, 1), (1, 6), (0, 2), (2, 7), (3, 5), (1, 3), (0, 4), (4, 6), (0, 5)]
    inst = Instance.from_edges(8, edges, [0, 5, 6, 7])
    state = PartitionState(inst)
    state.union(0, 5)
    best_comet(state)
    upkeep = state.view_upkeep()
    assert edge_view(state) == {
        1: {0: (0, 1), 6: (1, 6)},
        2: {0: (0, 2), 7: (2, 7)},
        3: {0: (3, 5)},
        4: {0: (0, 4), 6: (4, 6)},
    }
    kept = upkeep.touching[0]
    upkeep.view[2] = frozenset(upkeep.view[2])   # any write fails

    checked_merge(inst, state, lambda: state.merge([0, 1, 6]))
    assert edge_view(state) == {2: {0: (0, 2), 7: (2, 7)}, 3: {0: (1, 3)}, 4: {0: (0, 4)}}
    assert upkeep.touching[0] is kept and kept == {2, 3, 4}
    assert 6 not in upkeep.touching
    assert {3, 4} <= upkeep.reshaped and 2 not in upkeep.reshaped
    assert find_max_star(state, 1).center == 2


def test_merge_under_a_free_name_rekeys_every_set():
    # The star at the free node 0 joins terminals 3 and 5 under the name 0.
    edges = [(0, 3), (0, 5), (1, 3), (2, 5), (3, 4), (4, 5), (2, 6)]
    inst = Instance.from_edges(7, edges, [3, 5, 6])
    state = PartitionState(inst)
    best_comet(state)
    upkeep = state.view_upkeep()
    assert edge_view(state) == {
        0: {3: (0, 3), 5: (0, 5)},
        1: {3: (1, 3)},
        2: {5: (2, 5), 6: (2, 6)},
        4: {3: (3, 4), 5: (4, 5)},
    }

    checked_merge(inst, state, lambda: state.merge([0, 3, 5]))
    assert edge_view(state) == {1: {0: (1, 3)}, 2: {0: (2, 5), 6: (2, 6)}, 4: {0: (3, 4)}}
    # Around the absorbed 0 and the visited 1, 2 and 4.
    assert upkeep.reshaped == {0, 1, 2, 3, 4, 5, 6}
    assert upkeep.touching == {0: {1, 2, 4}, 6: {2}}
    assert find_max_star(state, 1).center == 2
