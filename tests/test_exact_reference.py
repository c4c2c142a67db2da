"""The exact oracles against verbatim copies of their former implementations.

Two references live here.

* The witness reference: `brute_force_opt`, `_mst_over` and
  `dreyfus_wagner` below are the oracles as they were before the subset
  search priced subsets by component count and the DP kept only its value
  rows: Kruskal over every subset, and a DP that relaxes with n^2 distance
  lookups and keeps attach/split tables.  The current oracles must return
  the same `Solution`, cost and connections, including every tie-break.
  The copies return `Solution` as the oracles now do; the result type
  they returned before carried the same two fields.
* The row reference: `value_rows`, `_splits` and `_merged` below are the
  values-only DP as it was before each row became three bitmask levels:
  one list of n ints per terminal subset, merged with one `map` per split
  and relaxed over the neighbour lists, clipped at the row's minimum plus
  2.  `exact._rows` builds the singleton rows and the rows of the subsets
  without the first terminal; each must equal its reference row node by
  node.  `dreyfus_wagner` reads every other row only at the first
  terminal, where `exact._value` must give the reference's value.  A row
  can differ while every witness agrees, so this checks what the witness
  comparison cannot.
"""

from fractions import Fraction
from itertools import combinations
from operator import add

from stp12 import exact
from stp12.core import (
    CapExceeded,
    Connection,
    DisjointSets,
    InputError,
    Instance,
    Solution,
    connection,
    cost,
)
from stp12.exact import BRUTE_FORCE_NODE_CAP, DREYFUS_WAGNER_TERMINAL_CAP
from stp12.harness import full_corpus
from stp12.io import GeneratorSpec, generate
from test_exact import given, settings  # None without hypothesis

_INF = 1 << 30


def brute_force_opt(instance: Instance, max_nodes: int = BRUTE_FORCE_NODE_CAP) -> Solution:
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
        return Solution(frozenset(), 0)

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
    return Solution(frozenset(best[1]), best[0])


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


def dreyfus_wagner(instance: Instance) -> Solution:
    """Steiner DP over terminal subsets on the 1/2 metric closure.

    O(3^k n + 2^k n^2) time for k terminals.  Agrees with brute_force_opt
    wherever both run; used as the second route in oracle cross-checks.
    The distances come from one n x n table, built once per instance.
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
        return Solution(frozenset(), 0)

    n = instance.node_count
    # dist[u][v]: the 1/2 metric, one table per instance
    dist = [[2] * n for _ in range(n)]
    for u, around in enumerate(instance.neighbourhoods):
        dist[u][u] = 0
        for v in around:
            dist[u][v] = 1

    full = (1 << k) - 1
    dp = [[_INF] * n for _ in range(full + 1)]
    # attach[mask][v]: node the mask-tree was grown from to reach v
    attach = [[-1] * n for _ in range(full + 1)]
    # split[mask][v]: submask merged at v (0 means the base/singleton case)
    split = [[0] * n for _ in range(full + 1)]

    for i, t in enumerate(terms):
        dp[1 << i] = list(dist[t])

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
            to_v = dist[v]   # the metric is symmetric
            for u in range(n):
                value = merged[u] + to_v[u]
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
    return Solution(result, total)


def value_rows(instance: Instance) -> list[list[int]]:
    """Every DP row of the values-only Dreyfus-Wagner, indexed by terminal subset."""
    terms = sorted(instance.terminals)
    k = len(terms)
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
    return dp


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


def assert_rows_match_reference(instance: Instance) -> None:
    """Every value `dreyfus_wagner` keeps or reads equals the row reference.

    A row `exact._rows` builds, a singleton or a subset without terms[0]
    (bit 0), is compared node by node.  A row holding terms[0] and more is
    not built and is read only at terms[0], so it is compared there.  Both
    are decoded by `exact._value`.
    """
    terms = sorted(instance.terminals)
    rows = exact._rows(instance.adjacency, terms)
    reference = value_rows(instance)
    nodes = range(instance.node_count)
    for mask in range(1, len(reference)):
        if mask & 1 and mask != 1:
            assert exact._value(rows, mask, terms[0]) == reference[mask][terms[0]], mask
        else:
            assert [exact._value(rows, mask, v) for v in nodes] == reference[mask], mask


def outcome(oracle, instance):
    try:
        return oracle(instance)
    except CapExceeded as exc:
        return str(exc)


def gnp_sample():
    """Instances at the reach of both oracles, as in the oracle-reach benchmark."""
    return [
        generate(GeneratorSpec("random-gnp", {"n": n, "p": Fraction(4, n - 1), "r": r}, seed))
        for n, r, seed in ((28, 10, 1), (31, 9, 2), (34, 10, 3), (36, 9, 4))
    ]


def corpus():
    """harness.full_corpus, which ends with bp-adversarial depth 7 (n = 21)."""
    cases = full_corpus(seed=0)
    assert cases[-1][0] == "bp-adversarial(depth=7,seed=0)"
    return [inst for _, inst in cases]


def test_subset_oracle_matches_reference():
    for inst in corpus() + gnp_sample():
        cap = max(BRUTE_FORCE_NODE_CAP, inst.node_count)
        assert exact.brute_force_opt(inst, cap) == brute_force_opt(inst, cap)


def test_dreyfus_wagner_matches_reference():
    # bp-adversarial depth 7 has 14 terminals, above the cap: both refuse it
    # with the same message.
    for inst in corpus() + gnp_sample():
        assert outcome(exact.dreyfus_wagner, inst) == outcome(dreyfus_wagner, inst)


def test_a_subset_that_only_ties_the_best_cost_can_still_win():
    # Corpus instance 0017: the six terminals alone span at cost 6 with one
    # distance-2 connection.  Adding Steiner node 3 ties that cost with
    # connections that sort first, so neither the size cutoff nor the
    # spanning skip may drop a subset whose price equals the best cost.
    inst = dict(full_corpus(seed=0))["0017:random-gnp(n=10,p=1/2,r=6,seed=536057929)"]
    terminals_only = _mst_over(sum(1 << t for t in inst.terminals), 6, sorted(
        (1 if inst.has_edge(u, v) else 2, u, v) for u in range(10) for v in range(u + 1, 10)
    ))
    assert terminals_only[0] == 6 and (1, 5) in terminals_only[1]
    assert exact.brute_force_opt(inst) == Solution(
        frozenset({(1, 3), (1, 5), (1, 8), (3, 9), (4, 5), (6, 9)}), 6
    )


def test_dp_rows_match_row_reference():
    for inst in corpus() + gnp_sample():
        if len(inst.terminals) <= DREYFUS_WAGNER_TERMINAL_CAP:
            assert_rows_match_reference(inst)


def test_rows_keep_the_level_two_above_a_splits_base():
    # Five terminals, edges 1-3 and 1-4.  Row {1, 2, 3, 4} takes its
    # minimum 4 at node 2 from the split ({2}, {1, 3, 4}), whose base is 2
    # and whose own minimum is base + 2, so from that split's level at
    # base + 2 (a0 | b0 | a1 & b1).  Leaving a0 | b0 out of that level
    # raises node 2 there by one.  The row mirrors {0, 1, 3, 4}, which is
    # not built, as nodes 0 and 2 are both isolated terminals.
    inst = Instance.from_edges(5, [(1, 3), (1, 4)], range(5))
    assert_rows_match_reference(inst)
    assert exact.dreyfus_wagner(inst) == dreyfus_wagner(inst)


def test_rebuild_reads_rows_holding_the_first_terminal_only_there(monkeypatch):
    # `_rows` builds no row holding terms[0] (bit 0) besides its singleton,
    # so `_rebuild` must never merge one, and read one only at terms[0].
    merge, value = exact._merge, exact._value
    merged = []
    root = None

    def checked_merge(rows, mask):
        assert not mask & 1, bin(mask)
        merged.append(mask)
        return merge(rows, mask)

    def checked_value(rows, mask, v):
        assert not mask & 1 or mask == 1 or v == root, (bin(mask), v)
        return value(rows, mask, v)

    monkeypatch.setattr(exact, "_merge", checked_merge)
    monkeypatch.setattr(exact, "_value", checked_value)
    rebuilt = 0
    for inst in corpus() + gnp_sample():
        terms = sorted(inst.terminals)
        if 1 < len(terms) <= DREYFUS_WAGNER_TERMINAL_CAP:
            root = terms[0]
            rows = exact._rows(inst.adjacency, terms)
            merged.clear()
            exact._rebuild(rows, terms, inst.adjacency, (1 << len(terms)) - 1, root, set())
            rebuilt += len(merged)
    # Some witnesses reach a node from another one, which merges its row.
    assert rebuilt > 0


if given is not None:
    from test_exact import graphs

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(graphs(max_nodes=11, max_terminals=6))
    def test_dp_rows_match_row_reference_on_random_graphs(inst):
        assert_rows_match_reference(inst)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(graphs(max_nodes=11, max_terminals=6))
    def test_dreyfus_wagner_matches_reference_on_random_graphs(inst):
        assert exact.dreyfus_wagner(inst) == dreyfus_wagner(inst)
