"""Exact Steiner optima for desk-scale instances.

Two independent oracles, used as ground truth for every ratio claim:

* brute_force_opt enumerates Steiner node subsets and takes the minimum
  spanning tree of the 1/2 metric on terminals plus subset.  In a metric
  space this sweep is provably optimal.  In the 1/2 metric a spanning tree
  over a node set S costs (|S| - 1) + (c(S) - 1), where c(S) counts the
  components of G[S], so each subset is priced by a flood fill and only a
  subset that can match or beat the best tree so far is spanned.
* dreyfus_wagner is the classic dynamic program over terminal subsets,
  running on the metric closure (which here is simply: 1 for edges, 2 for
  everything else, so one relaxation step per mask suffices, read off the
  neighbour lists).

Both refuse inputs beyond their caps rather than grind.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add

from stp12.core import (
    CapExceeded,
    Connection,
    DisjointSets,
    InputError,
    Instance,
    connection,
    cost,
)

BRUTE_FORCE_NODE_CAP = 24
DREYFUS_WAGNER_TERMINAL_CAP = 12


@dataclass(frozen=True)
class OptResult:
    cost: int
    connections: frozenset[Connection]


def brute_force_opt(instance: Instance, max_nodes: int = BRUTE_FORCE_NODE_CAP) -> OptResult:
    """Optimum by enumerating Steiner subsets and spanning them minimally.

    Only subsets of non-terminals with graph degree >= 3 are tried, and only
    up to |R| - 2 of them: an optimal tree can always be rewritten so every
    Steiner node keeps degree >= 3 with unit-cost edges only (a distance-2
    attachment can be re-routed at no extra cost), and a tree has at most
    (#leaves - 2) branching nodes.

    Subsets are tried by size, then in `combinations` order.  The witness
    is the least (cost, sorted connections) over all of them.  A subset
    whose price (|S| - 1) + (c(S) - 1) exceeds the best cost so far cannot
    win and is not spanned; sizes stop once |R| + size - 1 exceeds it.  A
    subset that only ties the cost is still spanned, because its sorted
    connections may be smaller.

    Time: O(n^2 log n) to sort the pairs, then O(|S|) per subset tried plus
    O(n^2) per subset spanned.
    """
    if instance.node_count > max_nodes:
        raise CapExceeded(
            f"brute_force_opt refuses n={instance.node_count} > cap {max_nodes}"
        )
    terms = sorted(instance.terminals)
    if not terms:
        raise InputError("brute_force_opt needs at least one terminal")
    if len(terms) == 1:
        return OptResult(0, frozenset())

    adjacency = instance.adjacency
    term_mask = 0
    for t in terms:
        term_mask |= 1 << t
    candidates = [
        v
        for v in range(instance.node_count)
        if v not in instance.terminals and adjacency[v].bit_count() >= 3
    ]
    # All node pairs once, cheapest and lexicographically smallest first.
    all_pairs = sorted(
        ((1 if instance.has_edge(u, v) else 2, u, v)
         for u in range(instance.node_count)
         for v in range(u + 1, instance.node_count)),
    )

    best: tuple[int, tuple[Connection, ...]] | None = None
    max_extra = min(len(candidates), max(0, len(terms) - 2))
    for size in range(max_extra + 1):
        if best is not None and len(terms) + size - 1 > best[0]:
            break
        for extra in combinations(candidates, size):
            node_mask = term_mask
            for v in extra:
                node_mask |= 1 << v
            # Every chosen Steiner node needs 3 unit edges inside the set.
            for v in extra:
                if (adjacency[v] & node_mask).bit_count() < 3:
                    break
            else:
                price = len(terms) + size - 2 + _component_count(adjacency, node_mask)
                if best is not None and price > best[0]:
                    continue
                tree = _mst_over(node_mask, len(terms) + size, all_pairs)
                if best is None or tree < best:
                    best = tree
    assert best is not None
    return OptResult(best[0], frozenset(best[1]))


def _component_count(adjacency: tuple[int, ...], node_mask: int) -> int:
    """Number of connected components of the graph induced on node_mask."""
    count = 0
    while node_mask:
        reached = frontier = node_mask & -node_mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adjacency[low.bit_length() - 1] & node_mask & ~reached
            reached |= new
            frontier |= new
        node_mask ^= reached
        count += 1
    return count


def _mst_over(
    node_mask: int, node_count: int, sorted_pairs: list[tuple[int, int, int]]
) -> tuple[int, tuple[Connection, ...]]:
    """Kruskal over the 1/2 metric restricted to the masked node set."""
    union = DisjointSets(node_mask.bit_length()).union
    picked: list[Connection] = []
    total = 0
    needed = node_count - 1
    for w, u, v in sorted_pairs:
        if needed == 0:
            break
        if not (node_mask >> u & 1 and node_mask >> v & 1):
            continue
        if not union(u, v):
            continue
        picked.append((u, v))
        total += w
        needed -= 1
    return total, tuple(sorted(picked))


def dreyfus_wagner(instance: Instance) -> OptResult:
    """Steiner DP over terminal subsets on the 1/2 metric closure.

    O(3^k n + 2^k (n + m)) time and O(2^k n) space for k terminals: each
    mask's row is the element-wise minimum over its splits, then one
    relaxation, min(merged[v], min(merged) + 2, merged[u] + 1 for each
    neighbour u of v).  Only the values are kept; `_rebuild` recovers the
    witness along its own path.  Agrees with brute_force_opt wherever both
    run; used as the second route in oracle cross-checks.
    """
    terms = sorted(instance.terminals)
    k = len(terms)
    if not terms:
        raise InputError("dreyfus_wagner needs at least one terminal")
    if k > DREYFUS_WAGNER_TERMINAL_CAP:
        raise CapExceeded(
            f"dreyfus_wagner refuses |R|={k} > cap {DREYFUS_WAGNER_TERMINAL_CAP}"
        )
    if k == 1:
        return OptResult(0, frozenset())

    n = instance.node_count
    neighbours = [tuple(instance.neighbors(v)) for v in range(n)]
    full = (1 << k) - 1
    dp: list[list[int]] = [[] for _ in range(full + 1)]
    for i, t in enumerate(terms):
        row = [2] * n
        for u in neighbours[t]:
            row[u] = 1
        row[t] = 0
        dp[1 << i] = row

    for mask in range(3, full + 1):
        if mask & (mask - 1):
            merged = _merged(dp, mask)
            # Every value lies within 2 of the row's minimum, so only the
            # neighbours of minimal nodes can be reached for less than that.
            low = min(merged)
            row = [value if value <= low + 1 else low + 2 for value in merged]
            for u, value in enumerate(merged):
                if value == low:
                    for v in neighbours[u]:
                        if row[v] > low + 1:
                            row[v] = low + 1
            dp[mask] = row

    conns: set[Connection] = set()
    _rebuild(dp, terms, neighbours, full, terms[0], conns)
    result = frozenset(conns)
    total = cost(instance, result)
    assert total == dp[full][terms[0]], "witness cost must match the DP optimum"
    return OptResult(total, result)


def _splits(mask: int) -> list[int]:
    """Proper submasks of mask that hold its lowest bit, in descending order."""
    low = mask & -mask
    rest = mask ^ low
    subs = []
    sub = (rest - 1) & rest
    while True:
        subs.append(sub | low)
        if not sub:
            return subs
        sub = (sub - 1) & rest


def _merged(dp: list[list[int]], mask: int) -> list[int]:
    """Element-wise minimum of dp[sub] + dp[mask ^ sub] over mask's splits."""
    sums = [map(add, dp[sub], dp[mask ^ sub]) for sub in _splits(mask)]
    return list(map(min, *sums)) if len(sums) > 1 else list(sums[0])


def _rebuild(
    dp: list[list[int]],
    terms: list[int],
    neighbours: list[tuple[int, ...]],
    mask: int,
    v: int,
    conns: set[Connection],
) -> None:
    """Add the connections of an optimal tree for dp[mask][v].

    The tie-breaking is that of a scan keeping the first strict improvement:
    v is reached from itself when its merged value is optimal, else from the
    smallest u that attains the optimum, and the split at u is the first in
    `_splits` order that attains merged[u].
    """
    if mask & (mask - 1) == 0:
        t = terms[mask.bit_length() - 1]
        if t != v:
            conns.add(connection(t, v))
        return
    merged = _merged(dp, mask)
    target = dp[mask][v]
    u = v
    if merged[v] != target:
        around = neighbours[v]
        u = next(
            u for u in range(len(merged))
            if u != v and merged[u] + (1 if u in around else 2) == target
        )
        conns.add(connection(u, v))
    sub = next(
        sub for sub in _splits(mask) if dp[sub][u] + dp[mask ^ sub][u] == merged[u]
    )
    _rebuild(dp, terms, neighbours, sub, u, conns)
    _rebuild(dp, terms, neighbours, mask ^ sub, u, conns)
