from fractions import Fraction

import pytest

from stp12 import harness, sixphase
from stp12.core import ContractViolation, Instance, Solution
from stp12.exact import brute_force_opt, dreyfus_wagner
from stp12.harness import (
    bp_sweep,
    brute_force_matching_size,
    exhaustive_min_cost_index,
    finishing_only_solver,
    full_corpus,
    gadget_corpus,
    minimize_instance,
    random_corpus,
    suite_oracles,
    suite_ratio_rs,
    suite_ratio_sixphase,
    summary_json,
)
from stp12.heuristics import find_max_star, preprocess_terminal_edges
from stp12.io import generate, GeneratorSpec

FOUR_STAR = ("4-star", generate(GeneratorSpec("star-cluster", {"k": 4, "m": 1})))


def lying_solver(inst, mode="cheapest", log=None):
    """Negative control: finishing-only connections (6 on a 4-star whose
    optimum is 4) reported at the optimum's cost."""
    return Solution(finishing_only_solver(inst, mode).connections, brute_force_opt(inst).cost)


def small_oracle_run(**overrides):
    params = {"count": 40, "matching_count": 40, "comet_count": 25, "seed": 13}
    params.update(overrides)
    return suite_oracles(**params)


def test_suite_oracles_passes_on_default_corpora():
    summary = small_oracle_run()
    assert summary["passed"], summary["mismatches"][:1]
    assert summary["checked"]["steiner_instances"] > 40  # randoms plus gadgets


def test_suite_oracles_detects_a_comet_search_past_index_1(monkeypatch):
    # Offering a 2-star (cost index 1) when nothing is below 1 is the
    # unrestricted minimum, which best_comet must not return.
    def with_two_stars(state):
        star = find_max_star(state, 1)
        return sixphase.best_comet(state) or (star if star and star.s == 2 else None)

    monkeypatch.setattr(harness, "best_comet", with_two_stars)
    summary = small_oracle_run()
    assert {m["check"] for m in summary["mismatches"]} == {"best_comet-vs-enumeration"}


def test_suite_oracles_detects_mutated_dreyfus_wagner():
    def broken(instance):
        honest = dreyfus_wagner(instance)
        if honest.cost > 0:
            return Solution(honest.connections, honest.cost + 1)
        return honest

    summary = small_oracle_run(dw_solver=broken)
    assert not summary["passed"]
    assert any(m["check"] == "dreyfus_wagner-vs-brute_force" for m in summary["mismatches"])


def test_ratio_suite_passes_on_small_corpus(tmp_path):
    corpus = random_corpus(count=60, seed=3) + gadget_corpus() + bp_sweep(5)
    rs = suite_ratio_rs(corpus, out_dir=str(tmp_path))
    sp = suite_ratio_sixphase(corpus, out_dir=str(tmp_path))
    assert rs["passed"] and sp["passed"]
    assert Fraction(rs["max_ratio"]["num"], rs["max_ratio"]["den"]) <= Fraction(4, 3)
    assert Fraction(sp["max_ratio"]["num"], sp["max_ratio"]["den"]) <= Fraction(5, 4)


def test_ratio_suite_flags_weak_stub_and_dumps_counterexample(tmp_path):
    # the finishing-only stub exceeds 4/3 on a plain 4-star (6 vs 4)
    summary = suite_ratio_rs(
        [FOUR_STAR],
        solver=lambda inst: finishing_only_solver(inst, "cheapest"),
        out_dir=str(tmp_path),
    )
    assert not summary["passed"]
    violation = summary["violations"][0]
    assert violation["reason"] == "ratio above bound"
    assert violation["minimized_nodes"] <= 5
    dumped = list(tmp_path.glob("counterexample-*.stp"))
    assert dumped, "expected a counterexample artifact on disk"
    # the dump reproduces the violation
    from stp12.io import parse_stp

    reloaded = parse_stp(dumped[0].read_text())
    opt = brute_force_opt(reloaded).cost
    assert Fraction(finishing_only_solver(reloaded).cost, opt) > Fraction(4, 3)


def test_ratio_suite_recomputes_a_lying_solvers_cost():
    summary = suite_ratio_rs([FOUR_STAR], solver=lying_solver)
    assert not summary["passed"]
    [violation] = summary["violations"]
    assert violation == {"instance": "4-star", "reason": "cost mismatch",
                         "reported_cost": 4, "algorithm_cost": 6, "algorithm": "rs"}


def test_ratio_suite_reports_a_connection_outside_the_instance():
    def outside(inst):
        return Solution(frozenset({(0, inst.node_count)}), 2)

    summary = suite_ratio_sixphase([FOUR_STAR], solver=outside)
    assert not summary["passed"]
    [violation] = summary["violations"]
    assert violation["reason"] == "invalid solution"
    assert violation["algorithm_cost"] is None


def test_empty_corpus_is_vacuous_pass_with_warning():
    summary = suite_ratio_rs(corpus=[])
    assert summary["passed"]
    assert summary["warnings"]


def test_suites_are_deterministic_bytes():
    first = summary_json(small_oracle_run())
    second = summary_json(small_oracle_run())
    assert first.encode() == second.encode()
    corpus = random_corpus(count=25, seed=4) + bp_sweep(4)
    assert summary_json(suite_ratio_rs(corpus)).encode() == summary_json(
        suite_ratio_rs(corpus)
    ).encode()


def test_bp_sweep_reaches_thirteen_tenths():
    summary = suite_ratio_rs(bp_sweep(7))
    assert summary["passed"]
    assert Fraction(summary["max_ratio"]["num"], summary["max_ratio"]["den"]) == Fraction(13, 10)


def test_full_corpus_composition():
    corpus = full_corpus(count=10, max_depth=3)
    names = [name for name, _ in corpus]
    assert any("bp-adversarial" in n for n in names)
    assert any("star-cluster" in n for n in names)
    assert any("random-gnp" in n for n in names)


def test_minimize_instance_shrinks_to_core():
    # plant a 4-star inside noise nodes; the stub keeps violating on the core
    inst = generate(GeneratorSpec("star-cluster", {"k": 4, "m": 1}))
    padded = Instance.from_edges(
        8,
        list(inst.edges()) + [(5, 6), (6, 7)],
        inst.terminals,
    )

    def violates(candidate):
        opt = brute_force_opt(candidate).cost
        return opt > 0 and Fraction(finishing_only_solver(candidate).cost, opt) > Fraction(4, 3)

    assert violates(padded)
    shrunk = minimize_instance(padded, violates)
    assert shrunk.node_count <= 5
    assert violates(shrunk)


def test_minimize_instance_lets_an_internal_error_through():
    # Only CapExceeded and InputError mean "does not keep the predicate";
    # a broken precondition during minimization must not vanish.
    inst = generate(GeneratorSpec("star-cluster", {"k": 4, "m": 1}))

    def predicate(candidate):
        if candidate.node_count < inst.node_count:
            raise ContractViolation("comet search met a 3-root entry at 1")
        return True

    with pytest.raises(ContractViolation, match="comet search met"):
        minimize_instance(inst, predicate)


def test_matching_oracle_agrees_on_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    assert brute_force_matching_size(10, outer + spokes + inner) == 5


def test_exhaustive_ci_none_when_no_structures():
    inst = Instance.from_edges(3, [], [0, 1, 2])
    state = preprocess_terminal_edges(inst)
    assert exhaustive_min_cost_index(state) is None
