"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every bound is checked exactly in rational arithmetic; the shared corpus is
1000 fixed-seed random instances within the oracle caps plus the structured
gadgets plus the adversarial sweep.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import random
from fractions import Fraction

import pytest

from stp12.audit import ReferenceSolution, decompose, normalize
from stp12.core import PartitionState, cost, is_valid_solution
from stp12.exact import brute_force_opt, dreyfus_wagner
from stp12.harness import (
    DEFAULT_SEED,
    bp_sweep,
    brute_force_matching_size,
    exhaustive_min_cost_index,
    gadget_corpus,
    random_corpus,
    suite_oracles,
    suite_ratio_rs,
    summary_json,
)
from stp12.heuristics import preprocess_terminal_edges, rayward_smith
from stp12.io import GeneratorSpec, generate, parse_stp, serialize_stp
from stp12.matching import AuxGraph, max_matching
from stp12.sixphase import best_comet, cost_index, six_phase, structure_cost_index

RS_BOUND = Fraction(4, 3)
SP_BOUND = Fraction(5, 4)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed{suffix}"


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(count=1000, seed=DEFAULT_SEED) + gadget_corpus()


@pytest.fixture(scope="module")
def corpus_with_opt(corpus):
    out = []
    for name, inst in corpus:
        out.append((name, inst, brute_force_opt(inst, max_nodes=24).cost))
    return out


@pytest.fixture(scope="module")
def sweep_with_opt():
    return [
        (name, inst, brute_force_opt(inst, max_nodes=24).cost)
        for name, inst in bp_sweep(7)
    ]


def test_criterion_1_cost_index_closed_forms():
    for s in range(2, 51):
        assert cost_index(s, s) == Fraction(1, s - 1), f"s-star s={s}"
    for a in range(0, 21):
        for b in range(0, 21):
            t = 2 * a + b
            if t < 2:
                continue
            assert cost_index(t, 3 * a + b) == Fraction(a + 1, t - 1), f"comet ({a},{b})"
    report("criterion 1 (cost-index closed forms)", True, "s<=50, a,b<=20, exact")


def test_criterion_2_oracle_agreement(corpus_with_opt):
    checked = 0
    for name, inst, opt in corpus_with_opt:
        if len(inst.terminals) > 12:
            continue
        dw = dreyfus_wagner(inst)
        assert dw.cost == opt, f"oracle mismatch on {name}: dw={dw.cost} bf={opt}"
        assert is_valid_solution(inst, dw.connections)
        assert cost(inst, dw.connections) == dw.cost
        checked += 1
    report("criterion 2 (oracle agreement)", checked >= 1000, f"{checked} instances")


def test_criterion_3_matching_correctness():
    rng = random.Random(DEFAULT_SEED + 3)
    cases = []
    for _ in range(500):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.3, 0.6))
        cases.append((n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p]))
    for k in (3, 5, 7, 9, 11):
        cases.append((k, [(i, (i + 1) % k) for i in range(k)]))
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    cases.append((10, petersen))
    for n, edges in cases:
        aux = AuxGraph.build(edges)
        got = len(max_matching(aux))
        want = brute_force_matching_size(n, edges)
        assert got == want, (n, edges)
    assert len(max_matching(AuxGraph.build(petersen))) == 5
    report("criterion 3 (matching correctness)", True, f"{len(cases)} graphs incl. Petersen")


def test_criterion_4_comet_search_correctness():
    rng = random.Random(DEFAULT_SEED + 4)
    count = 0
    for _ in range(300):
        n = rng.randint(2, 12)
        p = rng.choice((Fraction(1, 5), Fraction(7, 20), Fraction(1, 2)))
        r = rng.randint(1, min(6, n))
        spec = GeneratorSpec("random-gnp", {"n": n, "p": p, "r": r},
                             seed=rng.getrandbits(32))
        inst = generate(spec)
        state = PartitionState(inst)
        preprocess_terminal_edges(inst, state)
        structure = best_comet(inst, state)
        got = None if structure is None else structure_cost_index(structure)
        want = exhaustive_min_cost_index(inst, state)
        assert got == want, spec.instance_id()
        count += 1
    report("criterion 4 (comet search correctness)", count >= 300, f"{count} instances")


def test_criterion_5_rayward_smith_ratio(corpus_with_opt, sweep_with_opt):
    max_ratio = Fraction(0)
    for name, inst, opt in corpus_with_opt + sweep_with_opt:
        got = rayward_smith(inst).cost
        if opt == 0:
            assert got == 0, name
            continue
        ratio = Fraction(got, opt)
        assert ratio <= RS_BOUND, f"{name}: ratio {ratio} > 4/3"
        max_ratio = max(max_ratio, ratio)
    sweep_max = max(
        Fraction(rayward_smith(inst).cost, opt) for _, inst, opt in sweep_with_opt
    )
    assert sweep_max >= Fraction(13, 10), f"sweep only reached {sweep_max}"
    report(
        "criterion 5 (greedy ratio <= 4/3, sweep >= 1.30)",
        True,
        f"max={max_ratio}, sweep max={sweep_max}",
    )


def test_criterion_6_six_phase_ratio(corpus_with_opt, sweep_with_opt, tmp_path):
    violations = []
    max_ratio = Fraction(0)
    for name, inst, opt in corpus_with_opt + sweep_with_opt:
        got = six_phase(inst).cost
        if opt == 0:
            assert got == 0, name
            continue
        ratio = Fraction(got, opt)
        max_ratio = max(max_ratio, ratio)
        if ratio > SP_BOUND:
            violations.append((name, inst, ratio))
    for name, inst, ratio in violations:
        from stp12.harness import minimize_instance

        def still_violates(candidate):
            opt = brute_force_opt(candidate, max_nodes=24).cost
            return opt > 0 and Fraction(six_phase(candidate).cost, opt) > SP_BOUND

        minimized = minimize_instance(inst, still_violates)
        path = tmp_path / f"counterexample-sixphase-{len(violations)}.stp"
        path.write_text(serialize_stp(minimized, name))
        reloaded = parse_stp(path.read_text())
        assert still_violates(reloaded), "dump must reproduce the violation"
        print(f"six-phase violation on {name}: ratio {ratio}, dump {path}")
    report(
        "criterion 6 (six-phase ratio <= 5/4)",
        not violations,
        f"max={max_ratio}" if not violations else f"{len(violations)} violations dumped",
    )


def test_criterion_7_dominance_sanity(corpus_with_opt, sweep_with_opt):
    for name, inst, opt in corpus_with_opt + sweep_with_opt:
        rs_cheap = rayward_smith(inst, "cheapest").cost
        rs_strict = rayward_smith(inst, "strict-paper").cost
        sp_cheap = six_phase(inst, "cheapest").cost
        sp_strict = six_phase(inst, "strict-paper").cost
        assert rs_cheap <= rs_strict, name
        assert sp_cheap <= sp_strict, name
        for got in (rs_cheap, rs_strict, sp_cheap, sp_strict):
            assert got >= opt, name
    report("criterion 7 (dominance sanity)", True)


def test_criterion_8_normalization_postconditions(corpus_with_opt):
    checked = 0
    for name, inst, opt in corpus_with_opt:
        if checked >= 200:
            break
        if inst.node_count > 12:
            continue
        reference = ReferenceSolution(brute_force_opt(inst).connections)
        for mode in ("s3", "s4"):
            normalized, trace = normalize(inst, reference, mode)
            current = reference
            for step in trace:
                if step.kind == "path":
                    assert len(step.removed) == 2, (
                        f"{name}: k>2 path on an optimal reference (oracle bug)"
                    )
                current = ReferenceSolution(
                    current.connections - frozenset(step.removed)
                    | frozenset(step.added)
                )
                assert is_valid_solution(inst, current.connections), name
            assert current == normalized
            assert cost(inst, normalized.connections) >= opt, name
            s_comps, _ = decompose(inst, normalized)
            for comp in s_comps:
                if mode == "s3":
                    ok = comp.kind == "terminal-edge" or (
                        comp.kind == "star" and comp.params[0] >= 3
                    )
                else:
                    ok = (
                        comp.kind == "terminal-edge"
                        or (comp.kind == "star" and comp.params[0] >= 3)
                        or (comp.kind == "comet" and sum(comp.params) > 2)
                    )
                assert ok, f"{name} {mode}: {comp.label()}"
        checked += 1
    report("criterion 8 (normalization postconditions)", checked >= 200,
           f"{checked} references, both modes")


def test_criterion_9_determinism():
    first = summary_json(suite_oracles(count=25, matching_count=25, comet_count=15, seed=5))
    second = summary_json(suite_oracles(count=25, matching_count=25, comet_count=15, seed=5))
    byte_equal = first.encode() == second.encode()
    corpus = random_corpus(count=20, seed=6) + bp_sweep(4)
    rs_first = summary_json(suite_ratio_rs(corpus))
    rs_second = summary_json(suite_ratio_rs(corpus))
    byte_equal = byte_equal and rs_first.encode() == rs_second.encode()
    report("criterion 9 (byte-identical reports)", byte_equal)
