"""Random merges against the kept terminal view and the phase-6 key cache.

Hypothesis draws instances with at most 14 nodes, scores every comet of
cost index below 1 into the cache (`best_comet` itself scores none while a
star of s >= 3 stands),
then joins a terminal component to random components by direct unions or
collapses.  After each merge the kept view must equal a rebuild, each of its
representative edges must equal a plain scan, and every free center the
merge does not report reshaped must keep its comet sort key.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from stp12.core import Instance, PartitionState, collapse  # noqa: E402
from stp12.sixphase import _best_comet_key  # noqa: E402
from test_view_upkeep import (  # noqa: E402
    below_one,
    check_representative_edges,
    checked_merge,
    comet_keys,
    component_roots,
)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([20, 35, 60]))
    edges = [pair for pair in pairs if draw(st.integers(0, 99)) < density]
    terminals = [v for v in range(n) if draw(st.integers(0, 99)) < 40] or [0]
    return Instance.from_edges(n, edges, terminals)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(instances(), st.data())
def test_random_merges_keep_the_view_and_the_unreshaped_keys(inst, data):
    # Each step joins a terminal component and one or two more components
    # along a path that starts at it, by direct unions or by one collapse.
    # So every union touches a terminal component.
    state = PartitionState(inst)
    _best_comet_key(state)
    check_representative_edges(state)
    for _ in range(data.draw(st.integers(1, 8))):
        roots = component_roots(state)
        if len(roots) < 2:
            break
        first = data.draw(st.sampled_from(state.terminal_components()))
        others = [r for r in roots if r != first]
        size = data.draw(st.integers(1, min(2, len(others))))
        picked = [first] + data.draw(
            st.lists(st.sampled_from(others), min_size=size, max_size=size, unique=True)
        )
        members = {r: [x for x in range(inst.node_count) if state.find(x) == r] for r in picked}
        path = [
            (data.draw(st.sampled_from(members[a])), data.draw(st.sampled_from(members[b])))
            for a, b in zip(picked, picked[1:])
        ]
        if data.draw(st.booleans()):
            checked_merge(inst, state, lambda: [state.union(u, v) for u, v in path])
        else:
            checked_merge(inst, state, lambda: collapse(state, picked, path))
        if data.draw(st.booleans()):
            _best_comet_key(state)
            kept = state.view_upkeep().comets
            assert {c: key[:2] for c, key in kept.items()} == below_one(comet_keys(inst, state))
