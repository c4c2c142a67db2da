"""Fixed-seed acceptance suites wiring oracles to algorithms.

Each suite returns a plain summary dict (JSON-serializable) and is
deterministic for a fixed seed.  Violations carry minimized instances so a
reported finding can be reproduced from its dump alone.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import Callable

from stp12 import io as stpio
from stp12.core import (
    CapExceeded,
    Instance,
    PartitionState,
    Solution,
    cost,
    is_valid_solution,
)
from stp12.exact import brute_force_opt, dreyfus_wagner
from stp12.heuristics import finishing, preprocess_terminal_edges, rayward_smith
from stp12.matching import AuxGraph, max_matching
from stp12.sixphase import best_comet, cost_index, six_phase, structure_cost_index

RS_BOUND = Fraction(4, 3)
SIX_PHASE_BOUND = Fraction(5, 4)
DEFAULT_SEED = 20260809


# ---------------------------------------------------------------------------
# Independent oracles (brute force, used only to check the real algorithms)

def brute_force_matching_size(vertex_count: int, edges: list[tuple[int, int]]) -> int:
    """Exact maximum matching size by DP over vertex subsets (n <= ~20)."""
    adjacency = [0] * vertex_count
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        v = low.bit_length() - 1
        result = best(mask ^ low)
        avail = adjacency[v] & mask
        while avail:
            lowest = avail & -avail
            result = max(result, 1 + best(mask ^ low ^ lowest))
            avail ^= lowest
        memo[mask] = result
        return result

    return best((1 << vertex_count) - 1)


def exhaustive_min_cost_index(instance: Instance, state: PartitionState) -> Fraction | None:
    """Minimum cost index over every star and comet, by direct enumeration.

    Independent of the polynomial comet search: walks all fork sets (disjoint
    terminal pairs with distinct fork nodes) and all direct-attachment counts,
    deriving each cost index from raw terminal and edge counts.
    """
    best: Fraction | None = None

    def consider(t: int, c: int) -> None:
        nonlocal best
        if t >= 2:
            ci = cost_index(t, c)
            if best is None or ci < best:
                best = ci

    free = [
        v for v in range(instance.node_count) if not state.is_terminal_component(v)
    ]
    for center in free:
        directs = sorted(_adjacent_terminal_components(instance, state, center))
        fork_candidates: list[tuple[int, tuple[int, int]]] = []
        for f in instance.neighbors(center):
            if state.is_terminal_component(f):
                continue
            leaves = sorted(_adjacent_terminal_components(instance, state, f))
            for pair in combinations(leaves, 2):
                fork_candidates.append((f, pair))
        fork_candidates.sort()

        def walk(start: int, used_comps: frozenset[int], used_forks: frozenset[int],
                 forks: int) -> None:
            attachable = sum(1 for r in directs if r not in used_comps)
            for b in range(attachable + 1):
                consider(2 * forks + b, 3 * forks + b)
            for j in range(start, len(fork_candidates)):
                f, pair = fork_candidates[j]
                if f in used_forks or pair[0] in used_comps or pair[1] in used_comps:
                    continue
                walk(j + 1, used_comps | frozenset(pair), used_forks | {f}, forks + 1)

        walk(0, frozenset(), frozenset(), 0)
    return best


def _adjacent_terminal_components(
    instance: Instance, state: PartitionState, node: int
) -> set[int]:
    return {
        state.find(v)
        for v in instance.neighbors(node)
        if state.is_terminal_component(v)
    }


def finishing_only_solver(instance: Instance, mode: str = "strict-paper") -> Solution:
    """Deliberately weak baseline: skip every greedy phase.  Used as the
    negative control proving the ratio suites can fail."""
    state = PartitionState(instance)
    return finishing(instance, state, mode)


def minimize_instance(
    instance: Instance, predicate: Callable[[Instance], bool]
) -> Instance:
    """Greedy node deletion preserving `predicate`; assumes it already holds."""
    current = instance
    changed = True
    while changed:
        changed = False
        for v in range(current.node_count):
            if current.node_count <= 1:
                break
            candidate = _delete_node(current, v)
            try:
                keeps = candidate is not None and predicate(candidate)
            except Exception:
                keeps = False
            if keeps:
                current = candidate
                changed = True
                break
    return current


def _delete_node(instance: Instance, victim: int) -> Instance | None:
    remaining = [v for v in range(instance.node_count) if v != victim]
    if not remaining:
        return None
    relabel = {old: new for new, old in enumerate(remaining)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in instance.edges()
        if u != victim and v != victim
    ]
    terminals = [relabel[t] for t in instance.terminals if t != victim]
    if not terminals:
        return None
    return Instance.from_edges(len(remaining), edges, terminals)


# ---------------------------------------------------------------------------
# Fixed corpora

def random_corpus(
    count: int = 1000,
    seed: int = DEFAULT_SEED,
    max_nodes: int = 12,
    max_terminals: int = 6,
) -> list[tuple[str, Instance]]:
    """Random instances within the oracle caps, reproducible from the seed."""
    import random as _random

    rng = _random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(2, max_nodes)
        p = rng.choice((Fraction(1, 5), Fraction(7, 20), Fraction(1, 2), Fraction(7, 10)))
        r = rng.randint(1, min(max_terminals, n))
        spec = stpio.GeneratorSpec(
            "random-gnp", {"n": n, "p": p, "r": r}, seed=rng.getrandbits(32)
        )
        out.append((f"{i:04d}:{spec.instance_id()}", stpio.generate(spec)))
    return out


def gadget_corpus() -> list[tuple[str, Instance]]:
    """Structured instances exercising the star and comet machinery."""
    specs = [
        stpio.GeneratorSpec("star-cluster", {"k": k, "m": m})
        for k in (3, 4, 5, 6)
        for m in (1, 2, 3)
    ] + [
        stpio.GeneratorSpec("comet-chain", {"a": a, "b": b, "count": c})
        for a, b in ((0, 3), (1, 2), (1, 3), (2, 2), (3, 0), (2, 1))
        for c in (1, 2)
    ]
    out = [(spec.instance_id(), stpio.generate(spec)) for spec in specs]
    out.append(("path3", Instance.from_edges(3, [(0, 1), (1, 2)], [0, 2])))
    out.append(("lonely-terminal", Instance.from_edges(1, [], [0])))
    out.append(("far-pair", Instance.from_edges(2, [], [0, 1])))
    return out


def bp_sweep(max_depth: int = 7) -> list[tuple[str, Instance]]:
    """Adversarial family sweep; depth 7 realizes a greedy ratio of 13/10."""
    out = []
    for depth in range(2, max_depth + 1):
        spec = stpio.GeneratorSpec("bp-adversarial", {"depth": depth})
        out.append((spec.instance_id(), stpio.generate(spec)))
    return out


def full_corpus(
    count: int = 1000, seed: int = DEFAULT_SEED, max_depth: int = 7
) -> list[tuple[str, Instance]]:
    return random_corpus(count, seed) + gadget_corpus() + bp_sweep(max_depth)


# ---------------------------------------------------------------------------
# Suites

def suite_oracles(
    count: int = 1000,
    seed: int = DEFAULT_SEED,
    matching_count: int = 500,
    comet_count: int = 300,
    dw_solver: Callable[[Instance], object] | None = None,
) -> dict:
    """Cross-check every oracle pair on fixed-seed corpora."""
    import random as _random

    dw = dw_solver or dreyfus_wagner
    mismatches: list[dict] = []
    warnings: list[str] = []

    corpus = [
        (name, inst)
        for name, inst in random_corpus(count, seed) + gadget_corpus()
        if len(inst.terminals) <= 12
    ]
    if not corpus:
        warnings.append("empty corpus: oracle agreement passes vacuously")
    for name, inst in corpus:
        bf = brute_force_opt(inst)
        dw_res = dw(inst)
        ok = (
            dw_res.cost == bf.cost
            and is_valid_solution(inst, bf.connections)
            and is_valid_solution(inst, dw_res.connections)
            and cost(inst, bf.connections) == bf.cost
            and cost(inst, dw_res.connections) == dw_res.cost
        )
        if not ok:
            mismatches.append(
                {
                    "check": "dreyfus_wagner-vs-brute_force",
                    "instance": name,
                    "brute_force": bf.cost,
                    "dreyfus_wagner": dw_res.cost,
                    "dump": stpio.serialize_stp(inst, name),
                }
            )

    rng = _random.Random(seed + 1)
    for i in range(matching_count):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.3, 0.6))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        aux = AuxGraph.build(edges)
        got = len(max_matching(aux))
        want = brute_force_matching_size(n, edges)
        if got != want:
            mismatches.append(
                {
                    "check": "matching-vs-brute-force",
                    "instance": f"matching-{i}",
                    "edges": edges,
                    "got": got,
                    "want": want,
                }
            )

    rng2 = _random.Random(seed + 2)
    for i in range(comet_count):
        n = rng2.randint(2, 12)
        p = rng2.choice((Fraction(1, 5), Fraction(7, 20), Fraction(1, 2)))
        r = rng2.randint(1, min(6, n))
        spec = stpio.GeneratorSpec(
            "random-gnp", {"n": n, "p": p, "r": r}, seed=rng2.getrandbits(32)
        )
        inst = stpio.generate(spec)
        state = PartitionState(inst)
        preprocess_terminal_edges(inst, state)
        structure = best_comet(inst, state)
        got_ci = None if structure is None else structure_cost_index(structure)
        want_ci = exhaustive_min_cost_index(inst, state)
        if got_ci != want_ci:
            mismatches.append(
                {
                    "check": "best_comet-vs-enumeration",
                    "instance": spec.instance_id(),
                    "got": None if got_ci is None else str(got_ci),
                    "want": None if want_ci is None else str(want_ci),
                    "dump": stpio.serialize_stp(inst, spec.instance_id()),
                }
            )

    return {
        "suite": "oracles",
        "passed": not mismatches,
        "checked": {
            "steiner_instances": len(corpus),
            "matching_graphs": matching_count,
            "comet_instances": comet_count,
        },
        "mismatches": mismatches,
        "warnings": warnings,
    }


def _ratio_suite(
    suite_name: str,
    bound: Fraction,
    solver: Callable[[Instance, str], Solution],
    corpus: list[tuple[str, Instance]] | None,
    out_dir: str | None,
) -> dict:
    instances = full_corpus() if corpus is None else corpus
    warnings: list[str] = []
    if not instances:
        warnings.append("empty corpus: ratio bound passes vacuously")
    max_ratio = Fraction(0)
    max_instance = None
    violations: list[dict] = []
    skipped: list[str] = []

    def solve(candidate: Instance) -> Solution:
        return solver(candidate, "cheapest")

    for name, inst in instances:
        try:
            opt = brute_force_opt(inst).cost
        except CapExceeded as exc:
            skipped.append(f"{name}: {exc}")
            continue
        ratio, violation = check_ratio(name, inst, solve(inst), opt, solve, bound, out_dir)
        if ratio is not None and ratio > max_ratio:
            max_ratio, max_instance = ratio, name
        if violation is not None:
            violations.append(violation)
    return {
        "suite": suite_name,
        "passed": not violations,
        "bound": {"num": bound.numerator, "den": bound.denominator},
        "instances": len(instances),
        "max_ratio": {"num": max_ratio.numerator, "den": max_ratio.denominator},
        "max_ratio_instance": max_instance,
        "violations": violations,
        "skipped": skipped,
        "warnings": warnings,
    }


def check_ratio(
    name: str,
    instance: Instance,
    solution: Solution,
    opt: int,
    solve: Callable[[Instance], Solution],
    bound: Fraction,
    out_dir: str | None,
) -> tuple[Fraction | None, dict | None]:
    """Check one solution of `solve` against the instance's optimum cost.

    Returns the exact ratio (None when the optimum is 0 or the solution is
    invalid) and a violation record, or None when the solution is valid and
    within the bound.  A ratio violation is minimized by re-running `solve`
    and dumped by `_violation_record`.
    """
    if not is_valid_solution(instance, solution.connections):
        return None, {"instance": name, "reason": "invalid solution"}
    if opt == 0:
        if solution.cost != 0:
            return None, {"instance": name, "reason": "nonzero on trivial"}
        return None, None
    ratio = Fraction(solution.cost, opt)
    if ratio > bound:
        return ratio, _violation_record(name, instance, solve, bound, out_dir)
    return ratio, None


def _violation_record(
    name: str,
    instance: Instance,
    solve: Callable[[Instance], Solution],
    bound: Fraction,
    out_dir: str | None,
) -> dict:
    def still_violates(candidate: Instance) -> bool:
        opt = brute_force_opt(candidate).cost
        if opt == 0:
            return False
        return Fraction(solve(candidate).cost, opt) > bound

    minimized = minimize_instance(instance, still_violates)
    opt = brute_force_opt(minimized).cost
    got = solve(minimized).cost
    dump = stpio.serialize_stp(minimized, f"counterexample-{name}")
    record = {
        "instance": name,
        "reason": "ratio above bound",
        "minimized_nodes": minimized.node_count,
        "opt": opt,
        "algorithm_cost": got,
        "dump": dump,
    }
    if out_dir is not None:
        import os
        import re

        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
        path = os.path.join(out_dir, f"counterexample-{safe}.stp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dump)
        record["path"] = path
    return record


def suite_ratio_rs(
    corpus: list[tuple[str, Instance]] | None = None,
    solver: Callable[[Instance, str], Solution] | None = None,
    out_dir: str | None = None,
) -> dict:
    """Greedy heuristic ratio bound 4/3, checked exactly in rationals."""
    run = solver or (lambda inst, mode: rayward_smith(inst, mode))
    return _ratio_suite("ratio-rayward-smith", RS_BOUND, run, corpus, out_dir)


def suite_ratio_sixphase(
    corpus: list[tuple[str, Instance]] | None = None,
    solver: Callable[[Instance, str], Solution] | None = None,
    out_dir: str | None = None,
) -> dict:
    """Six-phase ratio bound 5/4, checked exactly in rationals."""
    run = solver or (lambda inst, mode: six_phase(inst, mode))
    return _ratio_suite("ratio-six-phase", SIX_PHASE_BOUND, run, corpus, out_dir)


def summary_json(summary: dict) -> str:
    """Stable serialization for suite summaries (byte-identical per seed)."""
    return json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n"
