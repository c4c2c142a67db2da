"""Metamorphic and bound properties of both heuristics on random graphs.

Hypothesis draws graphs within the subset oracle's cap.  Adding an isolated
non-terminal must change neither RS's cost nor six-phase's in either
finishing mode, and both heuristics must pass the harness's shared check: a valid solution
at its reported cost, OPT <= RS <= 4/3 OPT and OPT <= six-phase <= 5/4 OPT.
They must still pass it after the nodes are relabeled by a drawn
permutation; their tie-breaks follow node ids, so their costs may change.
"""

import pytest

pytest.importorskip("hypothesis")

from stp12.core import Instance  # noqa: E402
from stp12.harness import RS_BOUND, SIX_PHASE_BOUND, check_instances  # noqa: E402
from stp12.heuristics import FINISHING_MODES, rayward_smith  # noqa: E402
from stp12.sixphase import six_phase  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_exact import given, graphs, settings  # noqa: E402

property_settings = settings(derandomize=True, database=None, deadline=None, max_examples=200)
within_cap = graphs(max_nodes=14, max_terminals=8)


@property_settings
@given(within_cap)
def test_isolated_non_terminal_changes_neither_heuristic(inst):
    padded = Instance.from_edges(inst.node_count + 1, inst.edges(), inst.terminals)
    assert rayward_smith(padded).cost == rayward_smith(inst).cost
    for mode in FINISHING_MODES:
        assert six_phase(padded, mode).cost == six_phase(inst, mode).cost


RUNS = [
    ("rs", RS_BOUND, lambda instance, log: rayward_smith(instance, log=log)),
    ("six-phase", SIX_PHASE_BOUND, lambda instance, log: six_phase(instance, log=log)),
]


def assert_both_pass(inst):
    [check] = check_instances([("drawn", inst)], RUNS, None)
    assert check.skipped is None
    assert {name: run.violation for name, run in check.runs.items()} == {
        "rs": None, "six-phase": None
    }
    return check.opt


@property_settings
@given(within_cap)
def test_both_heuristics_pass_the_shared_ratio_check(inst):
    assert_both_pass(inst)


@property_settings
@given(within_cap, st.data())
def test_both_heuristics_pass_the_shared_ratio_check_on_relabeled_nodes(inst, data):
    perm = data.draw(st.permutations(range(inst.node_count)))
    relabeled = Instance.from_edges(
        inst.node_count,
        [(perm[u], perm[v]) for u, v in inst.edges()],
        [perm[t] for t in inst.terminals],
    )
    assert assert_both_pass(relabeled) == assert_both_pass(inst)
