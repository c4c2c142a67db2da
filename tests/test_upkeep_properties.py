"""Random merges against the kept terminal view and the phase-6 key cache.

Instances are a few comet gadgets on shared terminals plus sparse noise
edges.  Phase 1 and a star loop that collapses a largest star while
s >= 3 run first, so every view entry holds at most two roots when the
comets are first scored, as in six-phase.  Then a terminal component is
joined to random components by direct unions or collapses.  After each
merge the kept view must equal a rebuild, each of its representative edges
must equal a plain scan, and every free center the merge does not report
reshaped must keep its comet sort key.  At states where every entry again
holds at most two roots, the states six-phase scores, the whole cache is
scored and compared with a fresh scoring.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from stp12.core import Instance, PartitionState, collapse  # noqa: E402
from stp12.heuristics import find_max_star, preprocess_terminal_edges  # noqa: E402
from stp12.sixphase import _best_comet_key  # noqa: E402
from test_view_upkeep import (  # noqa: E402
    below_one,
    check_representative_edges,
    checked_merge,
    comet_keys,
    component_roots,
)


def comet_rich(pick):
    """Terminals 0..k-1 (6 <= k <= 12), then two or three centers, each with
    up to two direct terminals and two or three fork nodes reaching two
    terminals, plus up to two noise edges.  `pick(options)` returns one."""
    terminals = list(range(pick(range(6, 13))))
    n = len(terminals)
    edges = set()
    for _ in range(pick(range(2, 4))):
        center, n = n, n + 1
        edges.update((pick(terminals), center) for _ in range(pick(range(3))))
        for _ in range(pick(range(2, 4))):
            fork, n = n, n + 1
            first = pick(terminals)
            second = pick([t for t in terminals if t != first])
            edges.update({(center, fork), (first, fork), (second, fork)})
    for _ in range(pick(range(3))):
        u = pick(range(n))
        v = pick([x for x in range(n) if x != u])
        edges.add((min(u, v), max(u, v)))
    return Instance.from_edges(n, sorted(edges), terminals)


def merge_walk(inst, pick):
    """Score, then merge at random and check; return the full comparisons
    of a non-empty cache.

    Each step joins a terminal component and one or two more components
    along a path that starts at it, by direct unions or by one collapse.
    So every union touches a terminal component.
    """
    state = PartitionState(inst)
    preprocess_terminal_edges(state)
    while (star := find_max_star(state)) is not None and star.s >= 3:
        collapse(state, star.touched_components(), star.connections())
    _best_comet_key(state)
    check_representative_edges(state)
    compared = 0
    for _ in range(pick(range(1, 9))):
        roots = component_roots(state)
        if len(roots) < 2:
            break
        picked = [pick(state.terminal_components())]
        for _ in range(pick(range(1, min(2, len(roots) - 1) + 1))):
            picked.append(pick([r for r in roots if r not in picked]))
        members = {r: [x for x in range(inst.node_count) if state.find(x) == r] for r in picked}
        path = [(pick(members[a]), pick(members[b])) for a, b in zip(picked, picked[1:])]
        if pick((False, True)):
            checked_merge(inst, state, lambda: [state.union(u, v) for u, v in path])
        else:
            checked_merge(inst, state, lambda: collapse(state, picked, path))
        upkeep = state.view_upkeep()
        if all(len(reps) <= 2 for reps in upkeep.view.values()) and pick((False, True)):
            _best_comet_key(state)
            kept = {c: key[:2] for c, key in upkeep.comets.items()}
            assert kept == below_one(comet_keys(inst, state))
            compared += bool(kept)
    return compared


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(st.data())
def test_random_merges_keep_the_view_and_the_unreshaped_keys(data):
    def pick(options):
        return data.draw(st.sampled_from(options))

    merge_walk(comet_rich(pick), pick)


def test_fixed_seed_merges_compare_non_empty_caches():
    # The same walk with a seeded generator must compare a non-empty cache
    # at many states six-phase scores, or the test above may check nothing.
    rng = random.Random(3)
    compared = sum(merge_walk(comet_rich(rng.choice), rng.choice) for _ in range(150))
    assert compared >= 25
