import random
import re
from fractions import Fraction

import pytest

from stp12 import io as stpio
from stp12.core import CapExceeded, InputError, Instance
from stp12.exact import brute_force_opt
from stp12.heuristics import rayward_smith
from stp12.io import (
    STP_MAGIC,
    GeneratorSpec,
    ParseError,
    generate,
    parse_stp,
    serialize_stp,
)
from stp12.sixphase import six_phase

P3_TEXT = """\
SECTION Graph
Nodes 3
Edges 2
E 1 2 1
E 2 3 1
END

SECTION Terminals
Terminals 2
T 1
T 3
END

EOF
"""


def test_parse_simple_path():
    inst = parse_stp(P3_TEXT)
    assert inst.node_count == 3
    assert sorted(inst.edges()) == [(0, 1), (1, 2)]
    assert inst.terminals == frozenset({0, 2})


def test_parse_isolated_terminal():
    text = (
        "SECTION Graph\nNodes 1\nEdges 0\nEND\n"
        "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
    )
    inst = parse_stp(text)
    assert inst.node_count == 1
    assert brute_force_opt(inst).cost == 0


def test_parse_weight_two_pairs_are_dropped():
    text = (
        "SECTION Graph\nNodes 3\nEdges 2\nE 1 2 1\nE 1 3 2\nEND\n"
        "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
    )
    inst = parse_stp(text)
    assert sorted(inst.edges()) == [(0, 1)]


def test_parse_rejects_weight_three_with_line_number():
    text = (
        "SECTION Graph\nNodes 3\nEdges 1\nE 1 2 3\nEND\n"
        "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
    )
    with pytest.raises(ParseError) as info:
        parse_stp(text)
    assert info.value.line == 4
    assert "line 4" in str(info.value)


def test_parse_rejects_out_of_range_endpoint():
    text = (
        "SECTION Graph\nNodes 2\nEdges 1\nE 1 5 1\nEND\n"
        "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
    )
    with pytest.raises(ParseError):
        parse_stp(text)


@pytest.mark.parametrize(
    "graph, terminals, line",
    [
        ("Edges 5\nE 1 2 1\n", "Terminals 2\nT 1\nT 2\n", 3),
        ("Edges 1\nE 1 2 1\n", "Terminals 7\nT 1\nT 2\n", 7),
        ("Edges 1\nE 1 2 1\nE 2 3 2\n", "Terminals 2\nT 1\nT 2\n", 3),
    ],
    ids=["edges-short", "terminals-short", "weight-two-line-counted"],
)
def test_parse_rejects_mismatched_declared_counts(graph, terminals, line):
    text = (
        f"SECTION Graph\nNodes 3\n{graph}END\n"
        f"SECTION Terminals\n{terminals}END\nEOF\n"
    )
    with pytest.raises(ParseError) as err:
        parse_stp(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, line",
    [
        ("SECTION Graph\nNodes 2\nEND\nSECTION Terminals\nTerminals 2\nT 1\nT 1\nEND\n", 7),
        ("E 1 2 1\nSECTION Graph\nNodes 2\nEND\n", 1),
        ("SECTION Graph\nNodes 2\nEND\nT 1\n", 4),
        ("SECTION Graph\nNodes 0\nEND\n", 2),
        ("SECTION Graph\nNodes -3\nEND\n", 2),
        ("SECTION Graph\nNodes 2\nNodes 3\nEND\n", 3),
        ("SECTION Graph\nNodes 3\nE 1 2 1\nE 2 1 2\nEND\n", 4),
        ("SECTION Graph\nNodes 3\nE 1 2 2\nE 2 3 1\nE 1 2 1\nEND\n", 5),
        ("SECTION Graph\nNodes 3\nE 1 2 1\nE 1 2 1\nEND\n", 4),
        ("SECTION Graph\nNodes 3\nE 2 3 2\nE 3 2 2\nEND\n", 4),
        ("SECTION Graph\nNodes 3 x\nEND\n", 2),
        ("SECTION Graph\nNodes 3\nEdges 1 1\nE 1 2 1\nEND\n", 3),
        ("SECTION Graph\nNodes 3\nEND\nSECTION Terminals\nTerminals 1 2\nT 2\nEND\n", 5),
        ("SECTION Graph\nNodes 9\nEND\nSECTION Terminals\nT 2 7\nEND\n", 5),
        ("SECTION Graph\nNodes 1_0\nEND\n", 2),
        ("SECTION Graph\nNodes 5\nE \u0663 +4 1\nEND\n", 3),
        ("SECTION Graph\nNodes 5\nE 3 +4 1\nEND\n", 3),
        ("SECTION Graph\nNodes 5\nEND\nSECTION Terminals\nT \uff14\nEND\n", 5),
        ("SECTION Graph\nNodes 3\nEdges 7\nEdges 1\nE 1 2 1\nEND\n", 4),
        ("SECTION Graph\nNodes 3\nEND\nSECTION Terminals\nTerminals 9\nTerminals 1\nT 1\nEND\n", 6),
        ("SECTION Graph\nNodes 3\nE 1 2 " + "1" * 5000 + "\nEND\n", 3),
        ("SECTION Graph\nNodes " + "9" * 5000 + "\nEND\n", 2),
        ("SECTION Graph\nNodes 3\nEND\nSECTION Terminals\nT -" + "1" * 5000 + "\nEND\n", 5),
    ],
    ids=["terminal-twice", "edge-before-section", "terminal-after-end",
         "zero-nodes", "negative-nodes", "second-nodes",
         "pair-at-both-weights", "pair-at-both-weights-apart", "same-edge-twice",
         "weight-two-pair-twice", "token-after-nodes", "token-after-edges",
         "token-after-terminals", "token-after-terminal", "underscore-in-nodes",
         "arabic-indic-digit-in-edge", "plus-sign-in-edge", "fullwidth-digit-terminal",
         "second-edges", "second-terminals", "weight-beyond-int-digit-limit",
         "nodes-beyond-int-digit-limit", "terminal-beyond-int-digit-limit"],
)
def test_parse_rejects_malformed_lines_with_their_number(text, line):
    with pytest.raises(ParseError) as err:
        parse_stp(text)
    assert err.value.line == line


def test_parse_refuses_nodes_above_limit_before_allocating(monkeypatch):
    class NoInstance:
        def __init__(self, *args):
            raise AssertionError("parse_stp built an instance")

    monkeypatch.setattr(stpio, "Instance", NoInstance)
    text = (
        "SECTION Graph\nNodes 1000000000000000000\nEdges 1\nE 1 2 1\nEND\n"
        "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
    )
    with pytest.raises(CapExceeded, match="line 2: Nodes 1000000000000000000"):
        parse_stp(text)


def test_parse_accepts_nodes_at_limit():
    text = f"SECTION Graph\nNodes {stpio.MAX_NODES}\nEND\nEOF\n"
    assert parse_stp(text).node_count == stpio.MAX_NODES
    with pytest.raises(CapExceeded):
        parse_stp(f"SECTION Graph\nNodes {stpio.MAX_NODES + 1}\nEND\nEOF\n")


def test_parse_refuses_an_edges_count_above_the_edge_cap():
    limit = stpio.MAX_EXPECTED_EDGES
    text = f"SECTION Graph\nNodes {stpio.MAX_NODES}\nEdges {limit + 1}\nEND\nEOF\n"
    with pytest.raises(CapExceeded, match=f"line 3: Edges {limit + 1} above the limit {limit}"):
        parse_stp(text)
    with pytest.raises(ParseError, match=f"Edges declares {limit}, found 0"):
        parse_stp(text.replace(str(limit + 1), str(limit)))


def edge_document(edge_lines: int, declared: int | None) -> str:
    head = ["SECTION Graph", "Nodes 9"] + ([] if declared is None else [f"Edges {declared}"])
    edges = [f"E 1 {v} 1" for v in range(2, 2 + edge_lines)]
    return "\n".join(head + edges + ["END", "SECTION Terminals", "T 1", "END", "EOF"]) + "\n"


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "per-line"])
def test_parse_refuses_the_e_line_past_a_small_edge_cap(monkeypatch, bulk):
    # The cap is read when parse_stp runs.  Per-line: no run is added in bulk.
    results = []
    add_edges = stpio._add_edges

    def recorded_add_edges(*args):
        results.append(add_edges(*args) if bulk else False)
        return results[-1]

    monkeypatch.setattr(stpio, "_add_edges", recorded_add_edges)
    monkeypatch.setattr(stpio, "MAX_EXPECTED_EDGES", 5)
    assert len(list(parse_stp(edge_document(5, 5)).edges())) == 5
    assert results == [bulk]
    results.clear()
    with pytest.raises(CapExceeded, match="line 8: E line 6 above the limit 5"):
        parse_stp(edge_document(6, None))
    assert results == [False]
    with pytest.raises(CapExceeded, match="line 3: Edges 6 above the limit 5"):
        parse_stp(edge_document(6, 6))


def test_parse_skips_comment_sections_and_magic():
    text = (
        "33D32945 STP File, STP Format Version 1.0\n"
        'SECTION Comment\nName "x"\nCreator "y"\nEND\n'
        "SECTION Graph\nNodes 2\nEdges 1\nE 1 2 1\nEND\n"
        "SECTION Terminals\nTerminals 2\nT 1\nT 2\nEND\nEOF\n"
    )
    inst = parse_stp(text)
    assert inst.terminals == frozenset({0, 1})


def test_round_trip_identity():
    inst = parse_stp(P3_TEXT)
    again = parse_stp(serialize_stp(inst))
    assert again == inst
    assert serialize_stp(again) == serialize_stp(inst)


def test_gnp_deterministic_per_seed():
    spec = GeneratorSpec("random-gnp", {"n": 10, "p": Fraction(3, 10), "r": 4}, seed=7)
    assert generate(spec) == generate(spec)
    other = GeneratorSpec("random-gnp", {"n": 10, "p": Fraction(3, 10), "r": 4}, seed=8)
    assert generate(other) != generate(spec)


def test_gnp_matches_from_edges_over_the_same_draws():
    # One draw per pair in lexicographic order, then the terminal sample.
    for n, seed in ((9, 5), (32, 7), (200, 3)):
        p = Fraction(4, n - 1)
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < float(p)]
        terminals = rng.sample(range(n), n // 4)
        spec = GeneratorSpec("random-gnp", {"n": n, "p": p, "r": n // 4}, seed=seed)
        assert generate(spec) == Instance.from_edges(n, edges, terminals)


def test_gnp_respects_counts():
    spec = GeneratorSpec("random-gnp", {"n": 9, "p": Fraction(1, 2), "r": 3}, seed=5)
    inst = generate(spec)
    assert inst.node_count == 9
    assert len(inst.terminals) == 3


def test_star_cluster_single_gadget():
    inst = generate(GeneratorSpec("star-cluster", {"k": 4, "m": 1}))
    assert inst.node_count == 5
    assert brute_force_opt(inst).cost == 4


def test_star_cluster_bridged_ratio_one():
    inst = generate(GeneratorSpec("star-cluster", {"k": 4, "m": 2}))
    opt = brute_force_opt(inst).cost
    assert opt == 9
    assert rayward_smith(inst).cost == opt
    assert six_phase(inst).cost == opt


def test_comet_chain_gadget_optimum():
    inst = generate(GeneratorSpec("comet-chain", {"a": 1, "b": 3, "count": 1}))
    assert brute_force_opt(inst).cost == 6


def test_generator_validates_parameters():
    with pytest.raises(InputError):
        generate(GeneratorSpec("random-gnp", {"n": 5, "p": Fraction(3, 2), "r": 1}))
    with pytest.raises(InputError):
        generate(GeneratorSpec("random-gnp", {"n": 5, "p": Fraction(1, 2), "r": 9}))
    with pytest.raises(InputError):
        generate(GeneratorSpec("star-cluster", {"k": 1, "m": 2}))
    # A whole-number parameter refuses a fraction instead of truncating it.
    with pytest.raises(InputError):
        generate(GeneratorSpec("random-gnp", {"n": Fraction(15, 2), "p": Fraction(1, 2), "r": 1}))
    with pytest.raises(InputError):
        generate(GeneratorSpec("star-cluster", {"k": 4, "m": Fraction(5, 2)}))
    with pytest.raises(InputError):
        generate(GeneratorSpec("nonsense", {}))


LIMIT = stpio.MAX_NODES


class NoInstance:
    @staticmethod
    def from_edges(*args):
        raise AssertionError("generate built an instance")


def no_draws(*args):
    raise AssertionError("generate made a random generator")


@pytest.mark.parametrize(
    "family, params, nodes",
    [
        ("random-gnp", {"n": 10**9, "p": Fraction(1, 2), "r": 1}, 10**9),
        ("random-gnp", {"n": LIMIT + 1, "p": Fraction(1, 2), "r": 1}, LIMIT + 1),
        ("random-sparse", {"n": 10**18, "p": Fraction(1, 2), "r": 1}, 10**18),
        ("star-cluster", {"k": LIMIT, "m": 1}, LIMIT + 1),
        ("comet-chain", {"a": 0, "b": LIMIT, "count": 1}, LIMIT + 1),
        ("comet-chain", {"a": 1, "b": 0, "count": LIMIT // 4 + 1}, 4 * (LIMIT // 4 + 1)),
        ("bp-adversarial", {"depth": LIMIT // 3 + 1}, 3 * (LIMIT // 3 + 1)),
    ],
)
def test_generate_refuses_too_many_nodes_before_drawing(monkeypatch, family, params, nodes):
    monkeypatch.setattr(stpio, "Instance", NoInstance)
    monkeypatch.setattr(stpio.random, "Random", no_draws)
    with pytest.raises(CapExceeded, match=f"{family} makes {nodes} nodes"):
        generate(GeneratorSpec(family, params))


@pytest.mark.parametrize(
    "family, params, key",
    [
        ("random-gnp", {"n": 10, "p": Fraction(1, 2), "r": 3, "typo": 1}, "typo"),
        ("random-gnp", {"n": 10, "p": Fraction(1, 2), "r": 3, "": 3}, ""),
        ("star-cluster", {"k": 4, "m": 1, "n": 5}, "n"),
        # refused before the node cap is looked at
        ("bp-adversarial", {"depth": LIMIT, "k": 4}, "k"),
    ],
)
def test_generate_refuses_unknown_parameters_before_drawing(monkeypatch, family, params, key):
    monkeypatch.setattr(stpio, "Instance", NoInstance)
    monkeypatch.setattr(stpio.random, "Random", no_draws)
    with pytest.raises(InputError, match=re.escape(f"{family} has no parameter {key!r}")):
        generate(GeneratorSpec(family, params))


@pytest.mark.parametrize(
    "family, n, p",
    [
        ("random-sparse", LIMIT, 1),
        ("random-gnp", stpio.GNP_MAX_NODES, 1),
        ("random-sparse", 2000, Fraction(1001, 1999)),
        ("random-gnp", 2000, Fraction(1001, 1999)),
    ],
)
def test_generate_refuses_too_many_expected_edges_before_drawing(monkeypatch, family, n, p):
    # p * n(n-1)/2 is 1001000 at n = 2000, p = 1001/1999.
    monkeypatch.setattr(stpio, "Instance", NoInstance)
    monkeypatch.setattr(stpio.random, "Random", no_draws)
    limit = stpio.MAX_EXPECTED_EDGES
    with pytest.raises(CapExceeded, match=f"{family} expects .* edges, above the limit {limit}"):
        generate(GeneratorSpec(family, {"n": n, "p": p, "r": 1}))


def test_random_sparse_accepts_expected_edges_at_limit(monkeypatch):
    # p * n(n-1)/2 is exactly MAX_EXPECTED_EDGES; no edge is drawn.
    monkeypatch.setattr(stpio, "Instance", NodeCount)
    monkeypatch.setattr(stpio, "_sparse_edges", lambda n, p, rng: [])
    assert Fraction(1000, 1999) * 2000 * 1999 / 2 == stpio.MAX_EXPECTED_EDGES
    spec = GeneratorSpec("random-sparse", {"n": 2000, "p": Fraction(1000, 1999), "r": 1})
    assert generate(spec) == 2000


def test_gnp_refuses_more_nodes_than_it_can_draw_for(monkeypatch):
    monkeypatch.setattr(stpio, "Instance", NoInstance)
    monkeypatch.setattr(stpio.random, "Random", no_draws)
    n = stpio.GNP_MAX_NODES + 1
    with pytest.raises(CapExceeded, match=f"n={n} is above .* use random-sparse"):
        generate(GeneratorSpec("random-gnp", {"n": n, "p": Fraction(1, 2), "r": 1}))


class NodeCount:
    """Stands in for Instance: returns the node count it was given."""

    @staticmethod
    def from_edges(node_count, edges, terminals):
        return node_count


@pytest.mark.parametrize(
    "family, params",
    [
        ("random-sparse", {"n": LIMIT, "p": 0, "r": 1}),
        ("star-cluster", {"k": LIMIT - 1, "m": 1}),
        ("comet-chain", {"a": 0, "b": LIMIT - 1, "count": 1}),
    ],
)
def test_generate_accepts_nodes_at_limit(monkeypatch, family, params):
    monkeypatch.setattr(stpio, "Instance", NodeCount)
    assert generate(GeneratorSpec(family, params)) == LIMIT


def sparse(n, p, r, seed=0):
    return generate(GeneratorSpec("random-sparse", {"n": n, "p": p, "r": r}, seed))


def test_sparse_deterministic_per_seed():
    assert sparse(40, Fraction(1, 10), 5, seed=7) == sparse(40, Fraction(1, 10), 5, seed=7)
    assert sparse(40, Fraction(1, 10), 5, seed=8) != sparse(40, Fraction(1, 10), 5, seed=7)


def test_sparse_edges_are_distinct_pairs_in_order():
    for p in (0.01, 0.2, 0.7, 0.99):
        for seed in range(20):
            edges = stpio._sparse_edges(30, p, random.Random(seed))
            assert all(0 <= u < v < 30 for u, v in edges)
            assert edges == sorted(set(edges), key=lambda e: (e[1], e[0]))


def test_sparse_mean_edge_count_follows_p():
    # 435 pairs at p = 1/5: 87 edges expected, standard error 0.42 over 400 seeds
    total = sum(sparse(30, Fraction(1, 5), 1, seed).edge_count() for seed in range(400))
    assert abs(total / 400 - 87) < 2.5


def test_sparse_densities_and_counts():
    assert sparse(12, 0, 3).edge_count() == 0
    assert sparse(12, 1, 3).edge_count() == 66
    assert len(sparse(12, Fraction(1, 3), 12).terminals) == 12
    with pytest.raises(InputError):
        sparse(5, Fraction(1, 2), 6)
    with pytest.raises(InputError):
        sparse(5, Fraction(3, 2), 1)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is in the optional `test` extra
    given = None

if given is not None:
    _number = st.one_of(st.integers(-1, 7), st.sampled_from(["x", "1/2", "9" * 30]))
    _stp_line = st.one_of(
        st.sampled_from(["SECTION Graph", "SECTION Terminals", "SECTION Comment",
                         "SECTION", "END", "EOF", "", "# note", STP_MAGIC]),
        st.tuples(st.sampled_from(["Nodes", "Edges", "Terminals", "T", "E", "Name"]),
                  st.lists(_number, max_size=4))
        .map(lambda parts: " ".join([parts[0], *map(str, parts[1])])),
        st.text(max_size=12),
    )

    @st.composite
    def stp_texts(draw):
        """An STP document with small ids, counts and weights, some of them
        wrong, then up to three lines deleted or replaced by random ones."""
        small = st.integers(0, 7)
        ids = st.integers(1, 6)
        edges = draw(st.lists(st.tuples(ids, ids, st.integers(1, 3)), max_size=6))
        terminals = draw(st.lists(ids, max_size=4))
        nodes = draw(st.integers(6, 7) | _number)
        lines = [
            STP_MAGIC, "SECTION Graph", f"Nodes {nodes}", f"Edges {len(edges)}",
            *(f"E {u} {v} {w}" for u, v, w in edges), "END",
            "SECTION Terminals", f"Terminals {len(terminals)}",
            *(f"T {t}" for t in terminals), "END", "EOF",
        ]
        for at, line in draw(st.lists(st.tuples(small, st.none() | _stp_line), max_size=3)):
            if line is None:
                del lines[at % len(lines)]
            else:
                lines[at % len(lines)] = line
        return "\n".join(lines)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(stp_texts())
    def test_random_stp_text_parses_or_is_refused(text):
        try:
            assert isinstance(parse_stp(text), Instance)
        except (ParseError, CapExceeded):
            pass
