import random
from fractions import Fraction

import pytest

from stp12 import audit
from stp12.audit import (
    NormalizationStep,
    ReferenceSolution,
    _degrees,
    bridge_step,
    decompose,
    normalize,
    path_step,
)
from stp12.core import (
    Connection,
    ContractViolation,
    Instance,
    connection,
    cost,
    is_valid_solution,
)
from stp12.exact import DREYFUS_WAGNER_TERMINAL_CAP, brute_force_opt, dreyfus_wagner
from stp12.harness import full_corpus, gadget_corpus
from stp12.io import GeneratorSpec, generate


def ref(*pairs):
    return ReferenceSolution.from_connections(pairs)


def apply_trace(reference, trace):
    """Replay a normalization trace step by step, checking each intermediate."""
    current = reference
    seen = []
    for step in trace:
        conns = current.connections - frozenset(step.removed) | frozenset(step.added)
        current = ReferenceSolution(conns)
        seen.append(current)
    return seen


def test_decompose_terminal_edge():
    inst = Instance.from_edges(2, [(0, 1)], [0, 1])
    s_comps, c_comps = decompose(inst, ref((0, 1)))
    assert [s.kind for s in s_comps] == ["terminal-edge"]
    assert c_comps == [frozenset({0, 1})]


def test_decompose_three_star():
    inst = Instance.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 3])
    s_comps, c_comps = decompose(inst, ref((0, 1), (0, 2), (0, 3)))
    assert [s.label() for s in s_comps] == ["star(3)"]
    assert c_comps == [frozenset({0, 1, 2, 3})]


def test_decompose_two_stars_sharing_terminal():
    # centers 0 and 1 share terminal 4: two S-comps inside one C-comp
    edges = [(0, 2), (0, 3), (0, 4), (1, 4), (1, 5), (1, 6)]
    inst = Instance.from_edges(7, edges, [2, 3, 4, 5, 6])
    s_comps, c_comps = decompose(inst, ref(*edges))
    assert sorted(s.label() for s in s_comps) == ["star(3)", "star(3)"]
    assert len(c_comps) == 1
    # edge partition property: disjoint S-comps reassemble the unit edges
    assert sum(len(s.edges) for s in s_comps) == len(edges)
    assert frozenset().union(*(s.edges for s in s_comps)) == frozenset(
        ReferenceSolution.from_connections(edges).unit_edges(inst)
    )


def test_decompose_classifies_comet():
    edges = [(0, 2), (0, 3), (0, 1), (1, 4), (1, 5)]
    inst = Instance.from_edges(6, edges, [2, 3, 4, 5])
    s_comps, _ = decompose(inst, ref(*edges))
    assert [s.label() for s in s_comps] == ["comet(1,2)"]


def test_path_step_three_edges():
    # terminal 0 - 1 - 2 - terminal 3; k = 3, cost change 2 - 3 = -1
    inst = Instance.from_edges(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
    reference = ref((0, 1), (1, 2), (2, 3))
    updated = path_step(inst, reference, [0, 1, 2, 3])
    assert updated.connections == frozenset({(0, 3)})
    assert cost(inst, updated.connections) - cost(inst, reference.connections) == -1
    assert is_valid_solution(inst, updated.connections)


def test_path_step_two_edges_is_neutral():
    inst = Instance.from_edges(3, [(0, 1), (1, 2)], [0, 2])
    updated = path_step(inst, ref((0, 1), (1, 2)), [0, 1, 2])
    assert cost(inst, updated.connections) == 2


def test_path_step_rejects_single_edge():
    inst = Instance.from_edges(2, [(0, 1)], [0, 1])
    with pytest.raises(ContractViolation):
        path_step(inst, ref((0, 1)), [0, 1])


def test_path_step_rejects_terminal_interior():
    inst = Instance.from_edges(3, [(0, 1), (1, 2)], [0, 1, 2])
    with pytest.raises(ContractViolation):
        path_step(inst, ref((0, 1), (1, 2)), [0, 1, 2])


def test_bridge_step_between_stars():
    # two proper stars whose centers 0 and 1 are joined by a unit edge
    star_edges = [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]
    inst = Instance.from_edges(8, star_edges + [(0, 1)], [2, 3, 4, 5, 6, 7])
    reference = ref(*(star_edges + [(0, 1)]))
    updated = bridge_step(inst, reference, (0, 1))
    assert cost(inst, updated.connections) - cost(inst, reference.connections) == 1
    assert is_valid_solution(inst, updated.connections)
    s_comps, c_comps = decompose(inst, updated)
    assert sorted(s.label() for s in s_comps) == ["star(3)", "star(3)"]
    assert len(c_comps) == 2


def test_bridge_step_rejects_terminal_endpoint():
    inst = Instance.from_edges(3, [(0, 1), (1, 2)], [0, 2])
    with pytest.raises(ContractViolation):
        bridge_step(inst, ref((0, 1), (1, 2)), (0, 1))


def test_normalize_long_path_becomes_non_edge():
    inst = Instance.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0, 4])
    normalized, trace = normalize(inst, ref((0, 1), (1, 2), (2, 3), (3, 4)))
    assert normalized.connections == frozenset({(0, 4)})
    assert normalized.unit_edges(inst) == frozenset()
    assert [s.kind for s in trace] == ["path"]
    assert trace[0].cost_delta == 2 - 4


def test_normalize_star_is_fixed_point():
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    inst = Instance.from_edges(5, edges, [1, 2, 3, 4])
    normalized, trace = normalize(inst, ref(*edges))
    assert trace == []
    assert normalized.connections == frozenset(edges)


def test_normalize_strips_pendant_steiner_path():
    # a 3-star plus a dangling non-terminal path off its center
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]
    inst = Instance.from_edges(6, edges, [1, 2, 3])
    normalized, trace = normalize(inst, ref(*edges))
    assert [s.kind for s in trace] == ["prune", "prune"]
    s_comps, _ = decompose(inst, normalized)
    assert [s.label() for s in s_comps] == ["star(3)"]


def test_normalize_preserves_validity_throughout():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(2, 12)
        p = rng.choice([0.25, 0.4, 0.6])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        terminals = rng.sample(range(n), rng.randint(1, min(6, n)))
        inst = Instance.from_edges(n, edges, terminals)
        reference = ReferenceSolution(brute_force_opt(inst).connections)
        for mode in ("s3", "s4"):
            normalized, trace = normalize(inst, reference, mode)
            for intermediate in apply_trace(reference, trace):
                assert is_valid_solution(inst, intermediate.connections)
            assert is_valid_solution(inst, normalized.connections)
            s_comps, _ = decompose(inst, normalized)
            for comp in s_comps:
                if mode == "s3":
                    assert comp.kind == "terminal-edge" or (
                        comp.kind == "star" and comp.params[0] >= 3
                    ), comp
                else:
                    assert (
                        comp.kind == "terminal-edge"
                        or (comp.kind == "star" and comp.params[0] >= 3)
                        or (comp.kind == "comet" and sum(comp.params) > 2)
                    ), comp


def test_normalized_dreyfus_wagner_optima_keep_the_stated_shapes():
    # s3 leaves terminal edges and stars, and a star of s <= 2 only where
    # its center ends a non-edge connection (comet chains of two or three
    # gadgets give such stars); s4 leaves terminal edges, proper stars and
    # comets with a + b > 2.
    specs = [GeneratorSpec("comet-chain", {"a": a, "b": b, "count": count})
             for a in range(4) for b in range(4) for count in (2, 3) if a or b]
    cases = dict(gadget_corpus()) | {spec.instance_id(): generate(spec) for spec in specs}
    small_stars = 0
    classes = {}
    for name, inst in cases.items():
        if len(inst.terminals) > DREYFUS_WAGNER_TERMINAL_CAP:
            continue
        reference = ReferenceSolution(dreyfus_wagner(inst).connections)
        for mode in ("s3", "s4"):
            normalized, _ = normalize(inst, reference, mode)
            s_comps, _ = decompose(inst, normalized)
            classes[name, mode] = sorted({comp.label() for comp in s_comps})
            non_edge_ends = {v for c in normalized.connections - normalized.unit_edges(inst)
                             for v in c}
            for comp in s_comps:
                proper = comp.kind == "terminal-edge" or (
                    comp.kind == "star" and comp.params[0] >= 3
                )
                if mode == "s4":
                    assert proper or (comp.kind == "comet" and sum(comp.params) > 2), comp
                elif not proper:
                    assert comp.kind == "star", comp
                    [center] = comp.nodes - inst.terminals
                    assert center in non_edge_ends, comp
                    small_stars += 1
    assert classes["comet-chain(a=2,b=2,count=2,seed=0)", "s3"] == ["star(2)"]
    assert small_stars >= 5


def test_normalize_never_beats_optimum_and_k2_only_on_optima():
    # on an optimal reference no path with k > 2 can exist, and the
    # normalized cost can never drop below the optimum
    rng = random.Random(88)
    for _ in range(80):
        n = rng.randint(2, 11)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        terminals = rng.sample(range(n), rng.randint(1, min(5, n)))
        inst = Instance.from_edges(n, edges, terminals)
        opt = brute_force_opt(inst)
        reference = ReferenceSolution(opt.connections)
        for mode in ("s3", "s4"):
            normalized, trace = normalize(inst, reference, mode)
            assert cost(inst, normalized.connections) >= opt.cost
            for step in trace:
                if step.kind == "path":
                    assert len(step.removed) == 2, (
                        "oracle produced a reference admitting a shortening path"
                    )


def test_normalization_step_is_frozen_record():
    step = NormalizationStep("path", ((0, 1), (1, 2)), ((0, 2),), 0)
    assert step.kind == "path" and step.cost_delta == 0


def reference_path_move(instance, reference):
    """The chain walk `audit._path_move` used before it walked from the ends."""
    adjacency = _degrees(reference.connections)
    unit = reference.unit_edges(instance)

    def interior(node: int) -> bool:
        return (
            node not in instance.terminals
            and len(adjacency[node]) == 2
            and all(connection(node, o) in unit for o in adjacency[node])
        )

    candidates = []
    visited: set[int] = set()
    for node in sorted(adjacency):
        if node in visited or not interior(node):
            continue
        chain = [node]
        visited.add(node)
        ends = []
        for direction in adjacency[node]:
            prev, here = node, direction
            while interior(here) and here not in visited:
                visited.add(here)
                chain.append(here)
                nxt = [o for o in adjacency[here] if o != prev]
                prev, here = here, nxt[0]
            if interior(here):
                break  # closed cycle of interiors; junk pruning handles it
            ends.append((here, prev))
        if len(ends) != 2:
            continue
        (end_a, before_a), (end_b, before_b) = ends
        if end_a == end_b:
            continue
        path = [end_a]
        prev, here = end_a, before_a
        while here != end_b:
            path.append(here)
            nxt = [o for o in adjacency[here] if o != prev]
            prev, here = here, nxt[0]
        path.append(end_b)

        def valid_end(n: int) -> bool:
            return n in instance.terminals or len(adjacency[n]) > 2

        if valid_end(end_a) and valid_end(end_b) and len(path) >= 3:
            oriented = path if path[0] < path[-1] else list(reversed(path))
            candidates.append(oriented)
    if not candidates:
        return None
    return min(candidates, key=lambda p: (p[0], p[-1], p))


def path_move_instances():
    """The full corpus and 300 random-gnp instances of 20 to 32 nodes."""
    rng = random.Random(47)
    instances = [inst for _, inst in full_corpus()]
    for _ in range(300):
        n = rng.randint(20, 32)
        params = {"n": n, "p": Fraction(rng.choice((3, 4, 6)), n), "r": rng.randint(4, 9)}
        instances.append(generate(GeneratorSpec("random-gnp", params, rng.getrandbits(32))))
    return instances


def test_path_move_walked_from_the_ends_matches_the_chain_walk(monkeypatch):
    # Every call normalize makes on an optimal reference, in both modes, and
    # five references per instance with extra connections, mostly unit
    # edges, which leave paths of k > 2 edges and cycles through one end.
    rng = random.Random(53)
    calls = found = 0

    def checked_path_move(instance, reference):
        nonlocal calls, found
        got = path_move(instance, reference)
        assert got == reference_path_move(instance, reference)
        calls += 1
        found += got is not None
        return got

    path_move = audit._path_move
    monkeypatch.setattr(audit, "_path_move", checked_path_move)
    for inst in path_move_instances():
        oracle = dreyfus_wagner if len(inst.terminals) <= DREYFUS_WAGNER_TERMINAL_CAP else brute_force_opt
        optimum = ReferenceSolution(oracle(inst).connections)
        for mode in ("s3", "s4"):
            normalize(inst, optimum, mode)
        edges, n = sorted(inst.edges()), inst.node_count
        for _ in range(5):
            extra = {connection(*rng.choice(edges)) for _ in range(rng.randint(1, 4)) if edges}
            if n > 1:
                extra.add(connection(*rng.sample(range(n), 2)))
            checked_path_move(inst, ReferenceSolution(optimum.connections | extra))
    assert calls > 8000 and found > 200


def reference_pick_reconnection(
    instance: Instance,
    side_a: set[int],
    side_b: set[int],
    fallback: Connection | None,
) -> Connection | None:
    """Smallest cross pair, preferring terminal-terminal non-edges.

    Anchoring reconnections at terminals keeps non-terminal degrees equal to
    their unit-edge degrees, so later path steps can still dissolve the
    degenerate stars the rewriting leaves behind.
    """
    best_terminal: Connection | None = None
    best_any: Connection | None = None
    for x in side_a:
        for y in side_b:
            if instance.has_edge(x, y):
                continue
            pair = connection(x, y)
            if best_any is None or pair < best_any:
                best_any = pair
            if (
                x in instance.terminals
                and y in instance.terminals
                and (best_terminal is None or pair < best_terminal)
            ):
                best_terminal = pair
    if best_terminal is not None:
        return best_terminal
    if best_any is not None:
        return best_any
    return fallback


def reference_reachable(connections: frozenset[Connection], start: int) -> set[int]:
    adjacency: dict[int, list[int]] = {}
    for a, b in connections:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for other in adjacency.get(node, ()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def reference_reconnect(instance, remaining, a, b, fallback):
    """The tail path_step (fallback (a, b)) and bridge_step (fallback None)
    ended in before `audit._reconnect`, with the outcome it reached: the
    connections it returns, or None for a refused bridge."""
    side_a = reference_reachable(remaining, a)
    if b in side_a:
        return "joined", remaining
    pair = reference_pick_reconnection(
        instance, side_a, reference_reachable(remaining, b), fallback
    )
    if pair is None:
        return "refused", None
    if instance.has_edge(*pair):
        return "endpoint fallback", remaining | {pair}
    if instance.terminals.issuperset(pair):
        return "terminal pair", remaining | {pair}
    return "other non-edge", remaining | {pair}


def reconnect_cases():
    """Hand-built steps, one per outcome of the reconnect rule."""
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    bridged = [(0, 1), (0, 2), (1, 3)]
    return [
        # the cycle's closing edge (0, 3) still joins the path's ends
        ("path", Instance.from_edges(4, square, [0, 3]), square, [0, 1, 2, 3]),
        # the only cross pair (0, 3) is an edge: the endpoints are rejoined
        ("path", Instance.from_edges(4, square, [0, 3]), square[:3], [0, 1, 2, 3]),
        # terminals 2 and 3 are not adjacent: (2, 3) is added
        ("bridge", Instance.from_edges(4, bridged, [2, 3]), bridged, (0, 1)),
        # terminals 2 and 3 are adjacent, so (0, 3) is the least non-edge
        ("bridge", Instance.from_edges(4, bridged + [(2, 3)], [2, 3]), bridged, (0, 1)),
        # every cross pair is an edge: the bridge is refused
        ("bridge", Instance.from_edges(4, bridged + [(2, 3), (0, 3), (1, 2)], [2, 3]),
         bridged, (0, 1)),
    ]


def test_path_and_bridge_steps_reconnect_as_the_old_tail(monkeypatch):
    # Every step normalize takes, in both modes, on optimal references and
    # on five references per instance with extra connections, and the
    # hand-built steps above; the two outcomes optimal references reach
    # (terminal pair, endpoint fallback) must not be the only ones seen.
    rng = random.Random(59)
    outcomes = dict.fromkeys(
        ("joined", "terminal pair", "other non-edge", "endpoint fallback", "refused"), 0
    )

    def checked(step, instance, reference, removed, ends, fallback, *args):
        remaining = reference.connections - frozenset(removed)
        outcome, want = reference_reconnect(instance, remaining, *ends, fallback)
        outcomes[outcome] += 1
        try:
            got = step(instance, reference, *args).connections
        except ContractViolation as refusal:
            assert want is None and "no non-edge reconnection" in str(refusal)
            raise
        assert got == want
        return ReferenceSolution(got)

    def checked_path_step(instance, reference, path):
        removed = [connection(u, v) for u, v in zip(path, path[1:])]
        ends = path[0], path[-1]
        return checked(path_step, instance, reference, removed, ends, connection(*ends), path)

    def checked_bridge_step(instance, reference, edge):
        return checked(bridge_step, instance, reference, [edge], edge, None, edge)

    monkeypatch.setattr(audit, "path_step", checked_path_step)
    monkeypatch.setattr(audit, "bridge_step", checked_bridge_step)
    for inst in path_move_instances():
        oracle = dreyfus_wagner if len(inst.terminals) <= DREYFUS_WAGNER_TERMINAL_CAP else brute_force_opt
        optimum = oracle(inst).connections
        edges, n = sorted(inst.edges()), inst.node_count
        references = [optimum]
        for _ in range(5):
            extra = {connection(*rng.choice(edges)) for _ in range(rng.randint(1, 4)) if edges}
            if n > 1:
                extra.add(connection(*rng.sample(range(n), 2)))
            references.append(optimum | extra)
        for connections in references:
            for mode in ("s3", "s4"):
                normalize(inst, ReferenceSolution(connections), mode)
    for kind, inst, connections, where in reconnect_cases():
        step = checked_path_step if kind == "path" else checked_bridge_step
        try:
            step(inst, ref(*connections), where)
        except ContractViolation:
            pass
    assert all(outcomes.values()), outcomes
