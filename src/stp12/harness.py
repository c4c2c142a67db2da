"""Fixed-seed acceptance suites wiring oracles to algorithms.

Each suite returns a plain summary dict (JSON-serializable) and is
deterministic for a fixed seed.  `check_instances` is the one check of a
solver against the exact optimum; the ratio suites and `compare` use it.
Violations carry minimized instances so a reported finding can be
reproduced from its dump alone.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from stp12 import io as stpio
from stp12.core import (
    CapExceeded,
    InputError,
    Instance,
    PartitionState,
    Solution,
    cost,
    is_valid_solution,
)
from stp12.exact import DREYFUS_WAGNER_TERMINAL_CAP, brute_force_opt, dreyfus_wagner
from stp12.heuristics import find_max_star, finishing, preprocess_terminal_edges, rayward_smith
from stp12.matching import AuxGraph, max_matching
from stp12.sixphase import (
    _comet_at,
    best_comet,
    cost_index,
    six_phase,
    star_cost_index,
    structure_cost_index,
)

RS_BOUND = Fraction(4, 3)
SIX_PHASE_BOUND = Fraction(5, 4)
DEFAULT_SEED = 20260809
# Largest node and terminal counts of a random corpus instance
CORPUS_MAX_NODES = 12
CORPUS_MAX_TERMINALS = 6


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


def exhaustive_min_cost_index(state: PartitionState) -> Fraction | None:
    """Minimum cost index over every star and comet, by direct enumeration.

    Independent of the polynomial comet search: walks all fork sets (disjoint
    terminal pairs with distinct fork nodes) and all direct-attachment counts,
    deriving each cost index from raw terminal and edge counts.
    """
    instance = state.instance
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
        directs = sorted(_adjacent_terminal_components(state, center))
        fork_candidates: list[tuple[int, tuple[int, int]]] = []
        for f in instance.neighbors(center):
            if state.is_terminal_component(f):
                continue
            leaves = sorted(_adjacent_terminal_components(state, f))
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


def cold_min_cost_index(state: PartitionState) -> Fraction | None:
    """Least cost index of the largest star and of the comet at every free center.

    Each comet is built by `sixphase._comet_at`, with no comet cache and no
    stop at index 1, so on any state this must equal
    `exhaustive_min_cost_index`: it checks the comet search that
    `best_comet` restricts to indices below 1.
    """
    star = find_max_star(state)
    indices = [star_cost_index(star.s)] if star is not None and star.s >= 2 else []
    for center in range(state.instance.node_count):
        if not state.is_terminal_component(center):
            comet = _comet_at(state, center)
            if comet is not None:
                indices.append(comet.cost_index)
    return min(indices, default=None)


def _adjacent_terminal_components(state: PartitionState, node: int) -> set[int]:
    return {
        state.find(v)
        for v in state.instance.neighbors(node)
        if state.is_terminal_component(v)
    }


def finishing_only_solver(instance: Instance, mode: str = "strict-paper") -> Solution:
    """Deliberately weak baseline: skip every greedy phase.  Used as the
    negative control proving the ratio suites can fail."""
    state = PartitionState(instance)
    return finishing(state, mode)


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

def random_corpus(count: int = 1000, seed: int = DEFAULT_SEED) -> list[tuple[str, Instance]]:
    """Random instances within the oracle caps, reproducible from the seed."""
    import random as _random

    rng = _random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(2, CORPUS_MAX_NODES)
        p = rng.choice((Fraction(1, 5), Fraction(7, 20), Fraction(1, 2), Fraction(7, 10)))
        r = rng.randint(1, min(CORPUS_MAX_TERMINALS, n))
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
        if len(inst.terminals) <= DREYFUS_WAGNER_TERMINAL_CAP
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
        preprocess_terminal_edges(state)
        # The cold search must reach the unrestricted minimum, and
        # best_comet that minimum when it is below 1, else None.
        structure = best_comet(state)
        got_ci = None if structure is None else structure_cost_index(structure)
        cold_ci = cold_min_cost_index(state)
        want_ci = exhaustive_min_cost_index(state)
        below_one = want_ci if want_ci is not None and want_ci < 1 else None
        if cold_ci != want_ci or got_ci != below_one:
            mismatches.append(
                {
                    "check": "best_comet-vs-enumeration",
                    "instance": spec.instance_id(),
                    "got": None if got_ci is None else str(got_ci),
                    "cold": None if cold_ci is None else str(cold_ci),
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


@dataclass(frozen=True)
class RunCheck:
    """One run on one instance.  `cost` is recomputed from the connections
    (None when they leave the instance); `ratio` is that cost over the
    optimum, None when the optimum is 0 or the solution was rejected."""

    cost: int | None
    ratio: Fraction | None
    log: list[str]
    violation: dict | None


@dataclass(frozen=True)
class InstanceCheck:
    name: str
    opt: int | None        # None when the oracle skipped the instance
    skipped: str | None    # the oracle's cap message
    runs: dict[str, RunCheck]


# A solver under check: it gets the instance and a list for its log lines.
Solve = Callable[[Instance, list[str]], Solution]


def check_instances(
    instances: Iterable[tuple[str, Instance]],
    runs: Sequence[tuple[str, Fraction, Solve]],
    out_dir: str | None,
) -> list[InstanceCheck]:
    """Check every named run on every instance against `brute_force_opt`.

    The instances are iterated once, each checked before the next is drawn.
    An instance beyond the oracle's cap is recorded with the cap message
    and no runs.  A run's solution is rejected as "invalid solution" when
    its connections leave the instance or miss a terminal, and as "cost
    mismatch" when its reported cost differs from the recomputed one.  A
    valid solution violates when it costs less than the optimum, when it
    costs anything on a zero optimum, or when its ratio exceeds the run's
    bound; the last is minimized by re-running `solve` and dumped as
    `counterexample-<run>-<instance>.stp` in `out_dir`.  Every violation
    record carries the instance and run names.
    """
    checks = []
    for name, inst in instances:
        try:
            opt = brute_force_opt(inst).cost
        except CapExceeded as exc:
            checks.append(InstanceCheck(name, None, str(exc), {}))
            continue
        results = {}
        for run, bound, solve in runs:
            log: list[str] = []
            solution = solve(inst, log)
            got, violation = _checked_cost(inst, solution, opt)
            ratio = None
            if violation is None and opt:
                ratio = Fraction(got, opt)
                if ratio > bound:
                    violation = _violation_record(f"{run}-{name}", inst, solve, bound, out_dir)
            if violation is not None:
                violation = {"instance": name, **violation, "algorithm": run}
            results[run] = RunCheck(got, ratio, log, violation)
        checks.append(InstanceCheck(name, opt, None, results))
    return checks


def _checked_cost(
    instance: Instance, solution: Solution, opt: int
) -> tuple[int | None, dict | None]:
    """The solution's recomputed cost, and any violation other than its bound."""
    try:
        valid = is_valid_solution(instance, solution.connections)
        got = cost(instance, solution.connections)
    except InputError:
        valid, got = False, None
    if not valid or got != solution.cost:
        reason = "cost mismatch" if valid else "invalid solution"
        return got, {"reason": reason, "reported_cost": solution.cost, "algorithm_cost": got}
    if got < opt or (got and not opt):
        reason = "cost below the optimum" if opt else "nonzero on trivial"
        return got, {"reason": reason, "opt": opt, "algorithm_cost": got}
    return got, None


def fraction_json(value: Fraction) -> dict[str, int]:
    return {"num": value.numerator, "den": value.denominator}


def _ratio_suite(
    suite_name: str,
    run: str,
    bound: Fraction,
    solver: Callable[[Instance, str], Solution],
    corpus: list[tuple[str, Instance]] | None,
    out_dir: str | None,
) -> dict:
    instances = full_corpus() if corpus is None else corpus
    warnings = [] if instances else ["empty corpus: ratio bound passes vacuously"]
    max_ratio, max_instance = Fraction(0), None
    violations: list[dict] = []
    skipped: list[str] = []
    runs = [(run, bound, lambda candidate, log: solver(candidate, "cheapest"))]
    for check in check_instances(instances, runs, out_dir):
        if check.skipped is not None:
            skipped.append(f"{check.name}: {check.skipped}")
            continue
        result = check.runs[run]
        if result.ratio is not None and result.ratio > max_ratio:
            max_ratio, max_instance = result.ratio, check.name
        if result.violation is not None:
            violations.append(result.violation)
    return {
        "suite": suite_name,
        "passed": not violations,
        "bound": fraction_json(bound),
        "instances": len(instances),
        "max_ratio": fraction_json(max_ratio),
        "max_ratio_instance": max_instance,
        "violations": violations,
        "skipped": skipped,
        "warnings": warnings,
    }


def _violation_record(
    name: str,
    instance: Instance,
    solve: Solve,
    bound: Fraction,
    out_dir: str | None,
) -> dict:
    def opt_and_cost(candidate: Instance) -> tuple[int, int]:
        return (brute_force_opt(candidate).cost,
                cost(candidate, solve(candidate, []).connections))

    def still_violates(candidate: Instance) -> bool:
        opt, got = opt_and_cost(candidate)
        return opt != 0 and Fraction(got, opt) > bound

    minimized = minimize_instance(instance, still_violates)
    opt, got = opt_and_cost(minimized)
    dump = stpio.serialize_stp(minimized, f"counterexample-{name}")
    record = {
        "reason": "ratio above bound",
        "minimized_nodes": minimized.node_count,
        "opt": opt,
        "algorithm_cost": got,
        "dump": dump,
    }
    if out_dir is not None:
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
    return _ratio_suite("ratio-rayward-smith", "rs", RS_BOUND, run, corpus, out_dir)


def suite_ratio_sixphase(
    corpus: list[tuple[str, Instance]] | None = None,
    solver: Callable[[Instance, str], Solution] | None = None,
    out_dir: str | None = None,
) -> dict:
    """Six-phase ratio bound 5/4, checked exactly in rationals."""
    run = solver or (lambda inst, mode: six_phase(inst, mode))
    return _ratio_suite("ratio-six-phase", "six-phase", SIX_PHASE_BOUND, run, corpus, out_dir)


def summary_json(summary: dict) -> str:
    """Stable serialization for suite summaries (byte-identical per seed)."""
    return json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n"
