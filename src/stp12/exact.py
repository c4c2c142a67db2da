"""Exact Steiner optima for desk-scale instances.

Two independent oracles, used as ground truth for every ratio claim:

* brute_force_opt enumerates Steiner node subsets and takes the minimum
  spanning tree of the 1/2 metric on terminals plus subset.  In a metric
  space this sweep is provably optimal.
* dreyfus_wagner is the classic dynamic program over terminal subsets,
  running on the metric closure (which here is simply: 1 for edges, 2 for
  everything else, so one relaxation step per mask suffices).

Both refuse inputs beyond their caps rather than grind.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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

_INF = 1 << 30


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

    term_mask = 0
    for t in terms:
        term_mask |= 1 << t
    candidates = [
        v
        for v in range(instance.node_count)
        if v not in instance.terminals and instance.adjacency[v].bit_count() >= 3
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
        for extra in combinations(candidates, size):
            node_mask = term_mask
            for v in extra:
                node_mask |= 1 << v
            # Every chosen Steiner node needs 3 unit edges inside the set.
            if any((instance.adjacency[v] & node_mask).bit_count() < 3 for v in extra):
                continue
            tree = _mst_over(node_mask, len(terms) + size, all_pairs)
            if best is None or (tree[0], tree[1]) < best:
                best = tree
    assert best is not None
    return OptResult(best[0], frozenset(best[1]))


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


def dreyfus_wagner(
    instance: Instance, max_terminals: int = DREYFUS_WAGNER_TERMINAL_CAP
) -> OptResult:
    """Steiner DP over terminal subsets on the 1/2 metric closure.

    O(3^k n + 2^k n^2) time for k terminals.  Agrees with brute_force_opt
    wherever both run; used as the second route in oracle cross-checks.
    """
    terms = sorted(instance.terminals)
    k = len(terms)
    if not terms:
        raise InputError("dreyfus_wagner needs at least one terminal")
    if k > max_terminals:
        raise CapExceeded(f"dreyfus_wagner refuses |R|={k} > cap {max_terminals}")
    if k == 1:
        return OptResult(0, frozenset())

    n = instance.node_count

    def dist(u: int, v: int) -> int:
        if u == v:
            return 0
        return 1 if instance.has_edge(u, v) else 2

    full = (1 << k) - 1
    dp = [[_INF] * n for _ in range(full + 1)]
    # attach[mask][v]: node the mask-tree was grown from to reach v
    attach = [[-1] * n for _ in range(full + 1)]
    # split[mask][v]: submask merged at v (0 means the base/singleton case)
    split = [[0] * n for _ in range(full + 1)]

    for i, t in enumerate(terms):
        row = dp[1 << i]
        for v in range(n):
            row[v] = dist(t, v)

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        merged = [_INF] * n
        msplit = [0] * n
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                rest = mask ^ sub
                dps, dpr = dp[sub], dp[rest]
                for v in range(n):
                    value = dps[v] + dpr[v]
                    if value < merged[v]:
                        merged[v] = value
                        msplit[v] = sub
            sub = (sub - 1) & mask
        row = dp[mask]
        arow = attach[mask]
        srow = split[mask]
        for v in range(n):
            best_val = merged[v]
            best_u = v
            for u in range(n):
                value = merged[u] + dist(u, v)
                if value < best_val:
                    best_val = value
                    best_u = u
            row[v] = best_val
            arow[v] = best_u
            srow[v] = msplit[best_u]

    root = terms[0]
    conns: set[Connection] = set()

    def rebuild(mask: int, v: int) -> None:
        if mask & (mask - 1) == 0:
            t = terms[mask.bit_length() - 1]
            if t != v:
                conns.add(connection(t, v))
            return
        u = attach[mask][v]
        if u != v:
            conns.add(connection(u, v))
        sub = split[mask][v]
        rebuild(sub, u)
        rebuild(mask ^ sub, u)

    rebuild(full, root)
    result = frozenset(conns)
    total = cost(instance, result)
    assert total == dp[full][root], "witness cost must match the DP optimum"
    return OptResult(total, result)
