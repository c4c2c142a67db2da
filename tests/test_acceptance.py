"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-6 are verdicts of the harness suites on their default fixed-seed
corpora: `suite_oracles` for the oracle, matching and comet-search checks,
and `suite_ratio_rs` and `suite_ratio_sixphase` for the ratio bounds, which
they check exactly in rational arithmetic over 1000 random instances within
the oracle caps plus the structured gadgets plus the adversarial sweep.  Run
with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from fractions import Fraction

import pytest

from stp12.audit import ReferenceSolution, decompose, normalize
from stp12.core import cost, is_valid_solution
from stp12.exact import brute_force_opt
from stp12.harness import (
    bp_sweep,
    brute_force_matching_size,
    full_corpus,
    random_corpus,
    suite_oracles,
    suite_ratio_rs,
    suite_ratio_sixphase,
    summary_json,
)
from stp12.heuristics import rayward_smith
from stp12.matching import AuxGraph, max_matching
from stp12.sixphase import cost_index, six_phase


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed{suffix}"


@pytest.fixture(scope="module")
def corpus_with_opt():
    return [(name, inst, brute_force_opt(inst).cost) for name, inst in full_corpus()]


@pytest.fixture(scope="module")
def oracles():
    return suite_oracles()


def assert_no_mismatch(oracles: dict, check: str) -> None:
    found = [m for m in oracles["mismatches"] if m["check"] == check]
    assert not found, found[0]


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


def test_criterion_2_oracle_agreement(oracles):
    checked = oracles["checked"]["steiner_instances"]
    assert_no_mismatch(oracles, "dreyfus_wagner-vs-brute_force")
    report("criterion 2 (oracle agreement)", checked >= 1000, f"{checked} instances")


def test_criterion_3_matching_correctness(oracles):
    assert_no_mismatch(oracles, "matching-vs-brute-force")
    cycles = [(k, [(i, (i + 1) % k) for i in range(k)]) for k in (3, 5, 7, 9, 11)]
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    for n, edges in cycles + [(10, petersen)]:
        assert len(max_matching(AuxGraph.build(edges))) == n // 2, (n, edges)
        assert brute_force_matching_size(n, edges) == n // 2, (n, edges)
    graphs = oracles["checked"]["matching_graphs"] + len(cycles) + 1
    report("criterion 3 (matching correctness)", graphs >= 500,
           f"{graphs} graphs incl. Petersen")


def test_criterion_4_comet_search_correctness(oracles):
    count = oracles["checked"]["comet_instances"]
    assert_no_mismatch(oracles, "best_comet-vs-enumeration")
    report("criterion 4 (comet search correctness)", count >= 300, f"{count} instances")


def test_criterion_5_rayward_smith_ratio():
    summary = suite_ratio_rs()
    assert summary["instances"] == len(full_corpus()) and not summary["skipped"]
    max_ratio = Fraction(summary["max_ratio"]["num"], summary["max_ratio"]["den"])
    assert max_ratio == Fraction(13, 10)
    assert summary["max_ratio_instance"] == "bp-adversarial(depth=7,seed=0)"
    report("criterion 5 (greedy ratio <= 4/3, max 13/10 at depth 7)", summary["passed"],
           f"max={max_ratio} at {summary['max_ratio_instance']}")


def test_criterion_6_six_phase_ratio(tmp_path):
    summary = suite_ratio_sixphase(out_dir=str(tmp_path))
    assert summary["instances"] == len(full_corpus()) and not summary["skipped"]
    max_ratio = Fraction(summary["max_ratio"]["num"], summary["max_ratio"]["den"])
    detail = (f"max={max_ratio}" if summary["passed"] else
              f"{len(summary['violations'])} violations dumped to {tmp_path}")
    report("criterion 6 (six-phase ratio <= 5/4)", summary["passed"], detail)


def test_criterion_7_dominance_sanity(corpus_with_opt):
    for name, inst, opt in corpus_with_opt:
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
