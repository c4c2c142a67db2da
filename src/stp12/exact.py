"""Exact Steiner optima for desk-scale instances.

Two independent oracles, used as ground truth for every ratio claim:

* brute_force_opt enumerates Steiner node subsets and takes the minimum
  spanning tree of the 1/2 metric on terminals plus subset.  In a metric
  space this sweep is provably optimal.  Subsets in which some Steiner node
  has fewer than 3 unit edges inside the set are cut off during the search,
  so its work follows the subsets that can still qualify.  In the 1/2
  metric a spanning tree over a node set S costs (|S| - 1) + (c(S) - 1),
  where c(S) counts the components of G[S], so each subset is priced by a
  flood fill and only a subset that can match or beat the best tree so far
  is spanned.
* dreyfus_wagner is the classic dynamic program over terminal subsets,
  running on the metric closure (which here is simply: 1 for edges, 2 for
  everything else, so one relaxation step per mask suffices).  As Dreyfus
  and Wagner note, it needs only the subsets of R without one fixed
  terminal q = min(R): the optimum is the row of R - {q} read at q.  Since
  every distance is 1 or 2, each row lies within 2 of its own minimum, and
  three levels store it exactly: the minimum, the bitmask of nodes at it,
  and the bitmask of nodes at most one above it.  Splits merge by ANDs and
  ORs of n-bit ints, O(3^(k-1) ceil(n/w)) word operations over 2^(k-1)
  rows for k terminals and w-bit words, and each row's relaxation ORs one
  adjacency mask per minimal node; memory is O(2^(k-1) n) bits.

Both refuse inputs beyond their caps rather than grind.
"""

from __future__ import annotations

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

BRUTE_FORCE_NODE_CAP = 24
DREYFUS_WAGNER_TERMINAL_CAP = 12


def brute_force_opt(instance: Instance, max_nodes: int = BRUTE_FORCE_NODE_CAP) -> Solution:
    """Optimum by enumerating Steiner subsets and spanning them minimally.

    Only subsets of non-terminals with graph degree >= 3 are tried, and only
    up to |R| - 2 of them: an optimal tree can always be rewritten so every
    Steiner node keeps degree >= 3 with unit-cost edges only (a distance-2
    attachment can be re-routed at no extra cost), and a tree has at most
    (#leaves - 2) branching nodes.

    Subsets are tried by size, then in `combinations` order, and only those
    whose every Steiner node has 3 unit edges inside the set (see
    `_steiner_sets`).  The witness is the least (cost, sorted connections)
    over all of them.  A subset whose price (|S| - 1) + (c(S) - 1) exceeds
    the best cost so far cannot win and is not spanned; sizes stop once
    |R| + size - 1 exceeds it.  A subset that only ties the cost is still
    spanned, because its sorted connections may be smaller.

    Time: O(n^2) to list the pairs, then O(|S|) per branch of the subset
    search plus O(n^2) per subset spanned.
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

    adjacency = instance.adjacency
    term_mask = 0
    for t in terms:
        term_mask |= 1 << t
    candidates = [
        v
        for v in range(instance.node_count)
        if v not in instance.terminals and adjacency[v].bit_count() >= 3
    ]
    # All node pairs once, cheapest and lexicographically smallest first:
    # the unit pairs from the ascending neighbour tuples, then the rest.
    n = instance.node_count
    hoods = instance.neighbourhoods
    all_pairs = [(1, u, v) for u, around in enumerate(hoods) for v in around if v > u]
    for u, around in enumerate(hoods):
        near = set(around)
        all_pairs += [(2, u, v) for v in range(u + 1, n) if v not in near]

    best: tuple[int, tuple[Connection, ...]] | None = None
    max_extra = min(len(candidates), max(0, len(terms) - 2))
    for size in range(max_extra + 1):
        if best is not None and len(terms) + size - 1 > best[0]:
            break
        for node_mask in _steiner_sets(adjacency, candidates, term_mask, size):
            price = len(terms) + size - 2 + _component_count(adjacency, node_mask)
            if best is not None and price > best[0]:
                continue
            tree = _mst_over(node_mask, len(terms) + size, all_pairs)
            if best is None or tree < best:
                best = tree
    assert best is not None
    return Solution(frozenset(best[1]), best[0])


def _steiner_sets(
    adjacency: tuple[int, ...], candidates: list[int], term_mask: int, size: int
) -> list[int]:
    """Node masks R | S for every S of `size` candidates, in `combinations`
    order, in which each node of S has at least 3 neighbours in R | S.

    A depth-first search picks candidates in list order.  A branch ends as
    soon as some picked node cannot reach 3 neighbours even if every later
    candidate were picked; that set only shrinks as the next pick moves
    right, so the rest of the loop ends with it.  The sets kept are exactly
    those a filter over all of `combinations(candidates, size)` keeps, at a
    cost that follows the branches alive rather than C(c, size).
    """
    if size == 0:
        return [term_mask]
    found: list[int] = []
    count = len(candidates)
    # later[j]: the candidates from index j on.
    later = [0] * (count + 1)
    for j in range(count - 1, -1, -1):
        later[j] = later[j + 1] | 1 << candidates[j]

    def grow(start: int, mask: int, picked: tuple[int, ...], left: int) -> None:
        for j in range(start, count - left + 1):
            v = candidates[j]
            chosen = mask | 1 << v
            reach = chosen | later[j + 1]
            if (adjacency[v] & reach).bit_count() < 3:
                continue
            for u in picked:
                if (adjacency[u] & reach).bit_count() < 3:
                    return
            if left > 1:
                grow(j + 1, chosen, picked + (v,), left - 1)
                continue
            for u in picked:
                if (adjacency[u] & chosen).bit_count() < 3:
                    break
            else:
                if (adjacency[v] & chosen).bit_count() >= 3:
                    found.append(chosen)

    grow(0, term_mask, (), size)
    return found


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


def dreyfus_wagner(instance: Instance) -> Solution:
    """Steiner DP over terminal subsets on the 1/2 metric closure.

    Row S gives, for every node v, the cost of a cheapest tree spanning the
    terminals in S together with v.  Every pair of nodes is at distance 1 or
    2, so no value lies more than 2 above the row's minimum low[S]: grow the
    minimal tree by one connection of cost at most 2.  A row is therefore
    stored exactly as three values (see `_rows`): low[S], the bitmask of
    nodes at low[S], and the bitmask of nodes at most low[S] + 1; every
    other node sits at low[S] + 2.  `_merge` takes the element-wise minimum
    over the splits of S with a few ANDs and ORs of n-bit ints, and the
    relaxation ORs the neighbour masks of the minimal nodes into the next
    level.  Only the rows of the 2^(k-1) subsets without terms[0] are built
    (see `_rows`), and the optimum is the row of the others read at
    terms[0]; `_rebuild` recovers the witness along its own path.

    With w-bit machine words, each split costs O(ceil(n/w)) word operations,
    so all merges cost O(3^(k-1) ceil(n/w)) for k terminals.  A relaxation
    ORs one adjacency mask per minimal node, O(n ceil(n/w)) per row at worst
    and a few masks in practice.  Memory is O(2^(k-1) n) bits.  Agrees with
    brute_force_opt wherever both run; used as the second route in oracle
    cross-checks.
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

    rows = _rows(instance.adjacency, terms)
    full = (1 << k) - 1
    conns: set[Connection] = set()
    _rebuild(rows, terms, instance.adjacency, full, terms[0], conns)
    result = frozenset(conns)
    total = cost(instance, result)
    assert total == _value(rows, full, terms[0]), "witness cost must match the DP optimum"
    return Solution(result, total)


Rows = tuple[list[int], list[int], list[int]]


def _rows(adjacency: tuple[int, ...], terms: list[int]) -> Rows:
    """The DP rows as (low, at_low, at_next), indexed by terminal subset.

    Node v's value in row S is low[S], low[S] + 1 or low[S] + 2, as v is in
    at_low[S], only in at_next[S], or in neither (see `_value`).  A
    singleton row is 0 at its terminal, 1 at the terminal's neighbours and 2
    elsewhere.  Any other row is its merged minimum clipped at low + 2, with
    the neighbours of its minimal nodes lowered to low + 1.  Apart from the
    singletons, only the rows of even masks, the subsets without terms[0],
    are built; their splits are even too.  An odd mask's entries stay 0.
    """
    full = (1 << len(terms)) - 1
    low = [0] * (full + 1)
    at_low = [0] * (full + 1)
    at_next = [0] * (full + 1)
    for i, t in enumerate(terms):
        at_low[1 << i] = 1 << t
        at_next[1 << i] = 1 << t | adjacency[t]
    rows = (low, at_low, at_next)
    for mask in range(6, full + 1, 2):
        if mask & (mask - 1):
            best, level0, level1 = _merge(rows, mask)
            rest = level0
            while rest:
                bit = rest & -rest
                level1 |= adjacency[bit.bit_length() - 1]
                rest ^= bit
            low[mask] = best
            at_low[mask] = level0
            at_next[mask] = level1
    return rows


def _value(rows: Rows, mask: int, v: int) -> int:
    """v's value in row mask.

    A row holding terms[0] (bit 0) besides others is not built, and is read
    only at terms[0], where it equals the row without terms[0]: a tree
    spans mask and terms[0] exactly when it spans mask - {terms[0]} and
    terms[0].  See `_rebuild` for why no other node is read there.
    """
    if mask & 1 and mask != 1:
        mask ^= 1
    low, at_low, at_next = rows
    return low[mask] + 2 - (at_low[mask] >> v & 1) - (at_next[mask] >> v & 1)


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


def _merge(rows: Rows, mask: int) -> tuple[int, int, int]:
    """Minimum over mask's splits of the summed rows, as (best, level0, level1).

    best is the minimum of the merged row; level0 and level1 are the masks
    of nodes whose merged value is at most best and at most best + 1.  A
    split (A, B) with base s = low[A] + low[B] has its sum at most s on
    a0 & b0, at most s + 1 on a0 & b1 | a1 & b0, at most s + 2 on
    a0 | b0 | a1 & b1 and at most s + 3 on a1 | b1 (a0, a1 being at_low[A],
    at_next[A], and b0, b1 those of B); the split's own minimum is s, s + 1
    or s + 2, whichever of the first three is the first non-empty level.
    The running levels are re-based when a split lowers best.  Merged
    values above best + 1 (up to best + 4) are not kept: the row clips them
    to best + 2, and `_split_at` recomputes one where the witness needs it.

    Three steps are kept although no instance tried needs them: the level
    at the old best is carried into level1 when best drops by exactly 1,
    splits are skipped only when s > best + 1 (not s > best), and a split
    with s = best + 1 still adds a0 & b0 to level1.  Each is what the exact
    minimum requires; dropping one would need a proof that it never
    changes a row, not a passing test.
    """
    low, at_low, at_next = rows
    best = 1 << 30
    level0 = level1 = 0
    lowest = mask & -mask
    others = mask ^ lowest
    part = others
    while part:
        # The splits, as in `_splits`: sub holds mask's lowest bit.
        part = (part - 1) & others
        sub = part | lowest
        rest = mask ^ sub
        s = low[sub] + low[rest]
        if s > best + 1:
            continue
        a0 = at_low[sub]
        b0 = at_low[rest]
        if s > best:
            level1 |= a0 & b0
            continue
        a1 = at_next[sub]
        b1 = at_next[rest]
        # The split's minimum m and its levels at m and m + 1.
        m = s
        new0 = a0 & b0
        new1 = a0 & b1 | a1 & b0
        if not new0:
            m += 1
            new0 = new1
            new1 = a0 | b0 | a1 & b1
            if not new0:
                m += 1
                new0 = new1
                new1 = a1 | b1
        if m < best:
            if m + 1 == best:
                new1 |= level0
            best, level0, level1 = m, new0, new1
        elif m == best:
            level0 |= new0
            level1 |= new1
        elif m == best + 1:
            level1 |= new0
    return best, level0, level1


def _split_at(rows: Rows, mask: int, v: int) -> tuple[int, int]:
    """v's merged value, unclipped, and the first split in `_splits` order that attains it."""
    value, _, sub = min(
        (_value(rows, sub, v) + _value(rows, mask ^ sub, v), i, sub)
        for i, sub in enumerate(_splits(mask))
    )
    return value, sub


def _rebuild(
    rows: Rows,
    terms: list[int],
    adjacency: tuple[int, ...],
    mask: int,
    v: int,
    conns: set[Connection],
) -> None:
    """Add the connections of an optimal tree for row mask at v.

    The tie-breaking is that of a scan keeping the first strict improvement:
    v is reached from itself when its merged value is optimal, else from the
    smallest u whose merged value plus its distance to v attains the
    optimum, and the split at u is the first in `_splits` order that attains
    u's merged value.  Merged values are recomputed per node, unclipped,
    because the row holds best + 2 for anything above best + 1.

    Rows holding terms[0] (odd masks) are not built, and the rebuild reads
    them only at terms[0], where `_value` can.  It starts at (full,
    terms[0]).  At an odd mask M and v = terms[0], every split is (A, M - A)
    with A odd and M - A even, and `_split_at` reads A at terms[0].  The
    split ({terms[0]}, M - {terms[0]}) attains value(M - {terms[0]},
    terms[0]), which is v's row value, and no split does better: two trees
    that both hold terms[0] together span M.  So u = v, `_merge` is not
    called, and the odd part of the chosen split recurses at terms[0]
    again.  Every other mask met is even, and so are its splits.  Every
    value read is the one the full table of 2^k rows held, so the witness,
    tie-breaks included, is the one that table gives.
    """
    if mask & (mask - 1) == 0:
        t = terms[mask.bit_length() - 1]
        if t != v:
            conns.add(connection(t, v))
        return
    target = _value(rows, mask, v)
    merged, sub = _split_at(rows, mask, v)
    u = v
    if merged != target:
        # target is best + 1 (v neighbours level0) or best + 2 (it does not):
        # u attains it from level0 at distance 1, or from level0 at distance
        # 2 and from level1 at distance 1.
        best, level0, level1 = _merge(rows, mask)
        around = adjacency[v]
        if target == best + 1:
            candidates = level0 & around
        else:
            candidates = level0 | level1 & around
        u = (candidates & -candidates).bit_length() - 1
        conns.add(connection(u, v))
        sub = _split_at(rows, mask, u)[1]
    _rebuild(rows, terms, adjacency, sub, u, conns)
    _rebuild(rows, terms, adjacency, mask ^ sub, u, conns)
