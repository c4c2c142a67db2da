"""Instance files and instance generators.

Instances travel in the community STP format: a Graph section with `E u v w`
lines and a Terminals section with `T v` lines, 1-based ids.  Only weights 1
and 2 are meaningful here; weight-2 pairs are simply dropped on read because
the metric already makes every absent pair cost 2.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from stp12.core import CapExceeded, InputError, Instance

STP_MAGIC = "33D32945 STP File, STP Format Version 1.0"

# Largest node count parse_stp and generate accept.  An Instance holds one
# neighbour tuple per node, so its memory grows with n + m; the bitmasks the
# exact oracles read are built only on their first use.
MAX_NODES = 100_000
# Largest n random-gnp accepts: it makes one draw per node pair, which at
# n = MAX_NODES is 5 * 10^9 draws.  random-sparse draws the same distribution
# in O(n + m).
GNP_MAX_NODES = 10_000
# Largest expected edge count p * n(n-1)/2 the two random families accept.
# Both keep every edge they draw: at n = MAX_NODES and p = 1 that is
# 5 * 10^9 edges.
MAX_EXPECTED_EDGES = 1_000_000
# Most lines parse_stp checks as one run of E or T lines, so the run's token
# lists stay bounded.
RUN_LINES = 1024
_EDGE_RUN = re.compile(
    rf"(?:[ \t]*[Ee][ \t]+[0-9]+[ \t]+[0-9]+[ \t]+[0-9]+[ \t]*\n){{1,{RUN_LINES}}}"
)
_TERMINAL_RUN = re.compile(rf"(?:[ \t]*[Tt][ \t]+[0-9]+[ \t]*\n){{1,{RUN_LINES}}}")


class ParseError(InputError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_stp(text: str) -> Instance:
    """Parse an STP document into an Instance (ids mapped to 0-based).

    `text.splitlines()` defines the lines and their numbers.  Once Nodes is
    known, a run of up to RUN_LINES well-formed `E u v w` lines in the Graph
    section, or `T v` lines in the Terminals section, is matched at once:
    ASCII digits, split by spaces or tabs.  The run is checked as a whole
    (ids in 1..n, no self-loop, weights 1 or 2, no node pair or terminal
    listed twice, within the run or before it) and added whole.  Every other
    line, and every line of a run that fails, is read by the per-line rule,
    which alone words the errors, so a refusal names the same line with the
    same message whichever way the line was first read.

    A declared Edges or Terminals count must equal the E or T lines present.
    A Nodes count above MAX_NODES is refused with CapExceeded on its line,
    before anything is allocated for it.  Every other malformed line raises
    ParseError with its number, for example a line outside any SECTION, a
    second Nodes, Edges or Terminals line, a Nodes count below 1, a token
    after the value of a Nodes, Edges, Terminals or T line, a terminal
    listed twice, or a node pair listed twice at any weights.
    """
    lines = text.splitlines()
    joined = "\n".join(lines) + "\n"   # lines[lineno] starts at joined[pos]
    node_count: int | None = None
    edges: list[tuple[int, int]] = []     # the weight-1 pairs
    pairs: set[tuple[int, int]] = set()   # every pair (u, v), u < v, 0-based, at either weight
    terminals: set[int] = set()
    # (declared count, line of the declaration) for Edges and Terminals
    declared: dict[str, tuple[int, int]] = {}
    section: str | None = None
    lineno, pos = 0, 0
    # Lines before this index are read one at a time: a run that failed is
    # not matched again from each of its lines.
    one_by_one = 0
    while lineno < len(lines):
        if node_count is not None and lineno >= one_by_one:
            run = None
            if section == "graph":
                run = _EDGE_RUN.match(joined, pos)
                added = run is not None and _add_edges(
                    run.group().split(), node_count, pairs, edges
                )
            elif section == "terminals":
                run = _TERMINAL_RUN.match(joined, pos)
                added = run is not None and _add_terminals(
                    run.group().split(), node_count, terminals
                )
            if run is not None:
                taken = run.group().count("\n")
                if added:
                    lineno += taken
                    pos = run.end()
                    continue
                one_by_one = lineno + taken   # the per-line rule words the fault
        raw = lines[lineno]
        lineno += 1
        pos += len(raw) + 1
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("33D32945"):
            continue
        tokens = line.split()
        keyword = tokens[0].upper()
        if keyword == "SECTION":
            if len(tokens) < 2:
                raise ParseError("SECTION needs a name", lineno)
            section = tokens[1].lower()
            continue
        if keyword == "END":
            section = None
            continue
        if keyword == "EOF":
            break
        if section is None:
            raise ParseError(f"line outside any SECTION: {line!r}", lineno)
        if section == "graph":
            if keyword == "NODES":
                if node_count is not None:
                    raise ParseError("second Nodes line", lineno)
                node_count = _int_field(tokens, lineno, "Nodes")
                if node_count < 1:
                    raise ParseError(f"Nodes must be at least 1, got {node_count}", lineno)
                if node_count > MAX_NODES:
                    raise CapExceeded(
                        f"line {lineno}: Nodes {node_count} above the limit {MAX_NODES}"
                    )
            elif keyword == "EDGES":
                if "Edges" in declared:
                    raise ParseError("second Edges line", lineno)
                declared["Edges"] = (_int_field(tokens, lineno, "Edges"), lineno)
            elif keyword == "E":
                _edge_line(line, tokens, lineno, node_count, pairs, edges)
            else:
                raise ParseError(f"unknown Graph line {line!r}", lineno)
        elif section == "terminals":
            if keyword == "TERMINALS":
                if "Terminals" in declared:
                    raise ParseError("second Terminals line", lineno)
                declared["Terminals"] = (_int_field(tokens, lineno, "Terminals"), lineno)
            elif keyword == "T":
                t = _int_field(tokens, lineno, "T")
                if node_count is None or not (1 <= t <= node_count):
                    raise ParseError("terminal out of range", lineno)
                if t - 1 in terminals:
                    raise ParseError(f"terminal {t} listed twice", lineno)
                terminals.add(t - 1)
            else:
                raise ParseError(f"unknown Terminals line {line!r}", lineno)
        # content of other sections (Comment, ...) is ignored
    del lines, joined   # not held while the instance is built
    if node_count is None:
        raise ParseError("missing SECTION Graph with a Nodes line", 1)
    found = {"Edges": len(pairs), "Terminals": len(terminals)}
    for what, (count, lineno) in declared.items():
        if count != found[what]:
            raise ParseError(f"{what} declares {count}, found {found[what]}", lineno)
    around: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edges:
        around[u].append(v)
        around[v].append(u)
    for neighbours in around:   # no pair is listed twice: a sort is all they need
        neighbours.sort()
    return Instance(node_count, tuple(map(tuple, around)), frozenset(terminals))


def _add_edges(
    fields: list[str],
    node_count: int,
    pairs: set[tuple[int, int]],
    edges: list[tuple[int, int]],
) -> bool:
    """Add a run of edge lines, split into `E u v w` fields, if it passes
    every check of `_edge_line`; otherwise add nothing and return False."""
    try:
        us = list(map(int, fields[1::4]))
        vs = list(map(int, fields[2::4]))
        weights = {token: int(token) for token in set(fields[3::4])}
    except ValueError:  # a field beyond int's digit limit
        return False
    if not (1 <= min(us) and max(us) <= node_count and 1 <= min(vs) and max(vs) <= node_count):
        return False
    if any(map(operator.eq, us, vs)) or not set(weights.values()) <= {1, 2}:
        return False
    listed = [(u - 1, v - 1) if u < v else (v - 1, u - 1) for u, v in zip(us, vs)]
    run = set(listed)
    if len(run) != len(listed) or not run.isdisjoint(pairs):
        return False
    pairs |= run
    if 2 in weights.values():
        listed = [pair for pair, w in zip(listed, fields[3::4]) if weights[w] == 1]
    edges.extend(listed)
    return True


def _add_terminals(fields: list[str], node_count: int, terminals: set[int]) -> bool:
    """Add a run of terminal lines, split into `T v` fields, if it passes
    every check of the per-line rule; otherwise add nothing and return False."""
    try:
        ts = list(map(int, fields[1::2]))
    except ValueError:  # a field beyond int's digit limit
        return False
    if not (1 <= min(ts) and max(ts) <= node_count):
        return False
    run = {t - 1 for t in ts}
    if len(run) != len(ts) or not run.isdisjoint(terminals):
        return False
    terminals |= run
    return True


def _edge_line(
    line: str,
    tokens: list[str],
    lineno: int,
    node_count: int | None,
    pairs: set[tuple[int, int]],
    edges: list[tuple[int, int]],
) -> None:
    """Read one `E u v w` line of the Graph section, or refuse it."""
    if len(tokens) != 4:
        raise ParseError(f"edge line needs 'E u v w', got {line!r}", lineno)
    u, v, w = [_parse_int(t, lineno) for t in tokens[1:]]
    if node_count is None:
        raise ParseError("edge before Nodes declaration", lineno)
    if not (1 <= u <= node_count and 1 <= v <= node_count):
        raise ParseError(f"edge endpoint out of range 1..{node_count}", lineno)
    if u == v:
        raise ParseError("self-loop edge", lineno)
    if w not in (1, 2):
        raise ParseError(f"weight {w} outside the 1/2 metric", lineno)
    pair = (min(u, v) - 1, max(u, v) - 1)
    if pair in pairs:
        raise ParseError(f"edge {u} {v} listed twice", lineno)
    pairs.add(pair)
    if w == 1:
        edges.append(pair)


def _parse_int(token: str, lineno: int) -> int:
    """ASCII digits with an optional minus sign; `int` alone would also take
    `1_0`, `+4` and non-ASCII digits.  A field beyond `int`'s digit limit
    (4300 digits by default) is refused too."""
    digits = token[1:] if token[0] == "-" else token
    if not (digits.isdigit() and digits.isascii()):
        raise ParseError(f"expected integer, got {token!r}", lineno)
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", lineno) from None


def _int_field(tokens: list[str], lineno: int, what: str) -> int:
    """The one value of a `<what> <value>` line."""
    if len(tokens) < 2:
        raise ParseError(f"{what} needs a value", lineno)
    if len(tokens) > 2:
        raise ParseError(f"{what} takes one value, got {' '.join(tokens)!r}", lineno)
    return _parse_int(tokens[1], lineno)


def serialize_stp(instance: Instance, name: str = "instance") -> str:
    """Write an Instance as an STP document (1-based ids, weight-1 edges only)."""
    edges = list(instance.edges())
    lines = [
        STP_MAGIC,
        "",
        "SECTION Comment",
        f'Name    "{name}"',
        "END",
        "",
        "SECTION Graph",
        f"Nodes {instance.node_count}",
        f"Edges {len(edges)}",
    ]
    lines.extend(f"E {u + 1} {v + 1} 1" for u, v in edges)
    lines.append("END")
    lines.append("")
    lines.append("SECTION Terminals")
    lines.append(f"Terminals {len(instance.terminals)}")
    lines.extend(f"T {t + 1}" for t in sorted(instance.terminals))
    lines.append("END")
    lines.append("")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GeneratorSpec:
    """Family name, family-specific parameters, and a 64-bit seed."""

    family: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def instance_id(self) -> str:
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.family}({inner},seed={self.seed})"


def generate(spec: GeneratorSpec) -> Instance:
    """Deterministically build an instance from a GeneratorSpec.

    A family whose parameters ask for more than MAX_NODES nodes is refused
    with CapExceeded before anything is drawn or allocated, and so is
    random-gnp above GNP_MAX_NODES and a random family expecting more than
    MAX_EXPECTED_EDGES edges.  A parameter set `check_params` refuses is
    refused with InputError, also before anything is drawn.
    """
    check_params(spec.family, spec.params)
    return _GENERATORS[spec.family][0](spec)


def check_params(family: str, params: dict[str, Any]) -> None:
    """Refuse an unknown family, or parameters other than those it reads.

    Every family reads all of its parameters, so a missing one is refused
    as well as one the family does not read.
    """
    if family not in _GENERATORS:
        raise InputError(f"unknown generator family {family!r}")
    keys = _GENERATORS[family][1]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise InputError(f"{family} has no parameter {unknown[0]!r}; it reads {', '.join(keys)}")
    missing = [key for key in keys if key not in params]
    if missing:
        raise InputError(f"{family} needs parameter {missing[0]!r}")


def _param(spec: GeneratorSpec, key: str, kind=int, minimum=None):
    try:
        value = kind(spec.params[key])
        if value != spec.params[key]:  # int() truncates a Fraction
            raise ValueError
    except (TypeError, ValueError):
        raise InputError(f"parameter {key!r} must be {kind.__name__}") from None
    if minimum is not None and value < minimum:
        raise InputError(f"parameter {key!r} must be >= {minimum}")
    return value


def _node_cap(spec: GeneratorSpec, node_count: int) -> None:
    if node_count > MAX_NODES:
        raise CapExceeded(
            f"{spec.family} makes {node_count} nodes, above the limit {MAX_NODES}"
        )


def _gnp_params(spec: GeneratorSpec) -> tuple[int, int, float]:
    """n, r and p of the two random families, checked against every cap."""
    n = _param(spec, "n", int, 1)
    r = _param(spec, "r", int, 1)
    p = _param(spec, "p", Fraction, 0)
    if p > 1:
        raise InputError("parameter 'p' must be a density in [0, 1]")
    if r > n:
        raise InputError("parameter 'r' cannot exceed 'n'")
    _node_cap(spec, n)
    if spec.family == "random-gnp" and n > GNP_MAX_NODES:
        raise CapExceeded(
            f"random-gnp draws once per node pair; n={n} is above its limit "
            f"{GNP_MAX_NODES}, use random-sparse"
        )
    expected = p * n * (n - 1) / 2
    if expected > MAX_EXPECTED_EDGES:
        raise CapExceeded(
            f"{spec.family} expects {float(expected):.4g} edges, above the limit "
            f"{MAX_EXPECTED_EDGES}"
        )
    return n, r, float(p)


def _generate_gnp(spec: GeneratorSpec) -> Instance:
    """Every pair is an edge with probability p, one draw per pair."""
    n, r, threshold = _gnp_params(spec)
    rng = random.Random(spec.seed)
    # Pairs are drawn in lexicographic order, so each node's neighbours
    # arrive ascending and once each: the tuples need no sort.
    around: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < threshold:
                around[u].append(v)
                around[v].append(u)
    terminals = frozenset(rng.sample(range(n), r))
    return Instance(n, tuple(map(tuple, around)), terminals)


def _generate_sparse(spec: GeneratorSpec) -> Instance:
    """random-gnp's distribution in O(n + m) draws (geometric skipping)."""
    n, r, p = _gnp_params(spec)
    rng = random.Random(spec.seed)
    edges = _sparse_edges(n, p, rng)
    terminals = rng.sample(range(n), r)
    return Instance.from_edges(n, edges, terminals)


def _sparse_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Each pair (u, v), u < v, with probability p; sorted by v, then u.

    About one draw per edge: the number of pairs skipped before the next
    edge is geometric, so it is drawn directly (Batagelj and Brandes 2005).
    """
    if p <= 0:
        return []
    if p >= 1:
        return [(u, v) for v in range(n) for u in range(v)]
    log_q = math.log(1.0 - p)
    edges: list[tuple[int, int]] = []
    u, v = -1, 1
    while v < n:
        u += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while u >= v and v < n:
            u -= v
            v += 1
        if v < n:
            edges.append((u, v))
    return edges


def _generate_star_cluster(spec: GeneratorSpec) -> Instance:
    """m disjoint k-stars; consecutive clusters joined by one terminal edge."""
    k = _param(spec, "k", int, 2)
    m = _param(spec, "m", int, 1)
    _node_cap(spec, m * (k + 1))
    edges: list[tuple[int, int]] = []
    terminals: list[int] = []
    for i in range(m):
        center = i * (k + 1)
        leaves = [center + 1 + j for j in range(k)]
        edges.extend((center, leaf) for leaf in leaves)
        terminals.extend(leaves)
        if i:
            previous_last_leaf = (i - 1) * (k + 1) + k
            edges.append((previous_last_leaf, leaves[0]))
    return Instance.from_edges(m * (k + 1), edges, terminals)


def _generate_comet_chain(spec: GeneratorSpec) -> Instance:
    """Gadgets whose optimum is one comet each: a center with b direct
    terminals and a forks carrying two terminals apiece."""
    a = _param(spec, "a", int, 0)
    b = _param(spec, "b", int, 0)
    count = _param(spec, "count", int, 1)
    if 2 * a + b < 1:
        raise InputError("comet-chain needs at least one terminal per gadget")
    gadget_size = 1 + b + 3 * a
    _node_cap(spec, count * gadget_size)
    edges: list[tuple[int, int]] = []
    terminals: list[int] = []
    for i in range(count):
        base = i * gadget_size
        center = base
        node = base + 1
        for _ in range(b):
            edges.append((center, node))
            terminals.append(node)
            node += 1
        for _ in range(a):
            fork = node
            edges.append((center, fork))
            edges.append((fork, node + 1))
            edges.append((fork, node + 2))
            terminals.extend((node + 1, node + 2))
            node += 3
    return Instance.from_edges(count * gadget_size, edges, terminals)


def _generate_bp_adversarial(spec: GeneratorSpec) -> Instance:
    """Chain of depth 2-stars: center i carries one terminal pair and is
    linked to center i+1.  The greedy star loop exits immediately (no star
    exceeds s = 2) and must finish every pair with non-edges, while the
    optimum threads the center chain; the cost ratio climbs to 4/3 with
    depth."""
    depth = _param(spec, "depth", int, 1)
    _node_cap(spec, 3 * depth)
    edges: list[tuple[int, int]] = []
    terminals: list[int] = []
    for i in range(depth):
        center = i
        t1 = depth + 2 * i
        t2 = depth + 2 * i + 1
        edges.extend(((center, t1), (center, t2)))
        terminals.extend((t1, t2))
        if i + 1 < depth:
            edges.append((center, i + 1))
    return Instance.from_edges(3 * depth, edges, terminals)


# Each family's builder and the parameters it reads.
_GENERATORS = {
    "random-gnp": (_generate_gnp, ("n", "p", "r")),
    "random-sparse": (_generate_sparse, ("n", "p", "r")),
    "star-cluster": (_generate_star_cluster, ("k", "m")),
    "comet-chain": (_generate_comet_chain, ("a", "b", "count")),
    "bp-adversarial": (_generate_bp_adversarial, ("depth",)),
}
GENERATOR_FAMILIES = tuple(_GENERATORS)
