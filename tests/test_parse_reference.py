"""`parse_stp` against a line-by-line reference parser.

`reference_parse_stp` below is `parse_stp` as it was before runs of `E` and
`T` lines were checked in bulk: every line goes through one loop, and each
`E` line is checked and added on its own.  It also refuses a second
`Edges` or `Terminals` line, and an integer field beyond `int`'s digit
limit, with a ParseError, and an `Edges` count or an `E` line beyond
`io.MAX_EXPECTED_EDGES` with CapExceeded, as `parse_stp` now does.  Both
parsers must give the same outcome on every document: an equal
`Instance`, or the same exception type, line and message.

Beyond the small random documents of `test_io`, the documents here hold
more than three runs of `E` lines and more than one run of `T` lines
(`io.RUN_LINES` lines each), with one fault injected at a random line.
"""

import random

import pytest

from stp12 import io as stpio
from stp12.core import CapExceeded, Instance
from stp12.io import MAX_NODES, RUN_LINES, ParseError, parse_stp
from test_io import given

if given is not None:
    from test_io import settings, stp_texts


def reference_parse_stp(text: str) -> Instance:
    node_count: int | None = None
    edges: list[tuple[int, int]] = []
    pairs: set[tuple[int, int]] = set()   # every pair listed, at either weight
    terminals: set[int] = set()
    # (declared count, line of the declaration) for Edges and Terminals
    declared: dict[str, tuple[int, int]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
                count = _int_field(tokens, lineno, "Edges")
                if count > stpio.MAX_EXPECTED_EDGES:
                    raise CapExceeded(
                        f"line {lineno}: Edges {count} above the limit {stpio.MAX_EXPECTED_EDGES}"
                    )
                declared["Edges"] = (count, lineno)
            elif keyword == "E":
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
                if len(pairs) >= stpio.MAX_EXPECTED_EDGES:
                    raise CapExceeded(f"line {lineno}: E line {len(pairs) + 1} "
                                      f"above the limit {stpio.MAX_EXPECTED_EDGES}")
                pairs.add(pair)
                if w == 1:
                    edges.append(pair)
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
    if node_count is None:
        raise ParseError("missing SECTION Graph with a Nodes line", 1)
    found = {"Edges": len(pairs), "Terminals": len(terminals)}
    for what, (count, lineno) in declared.items():
        if count != found[what]:
            raise ParseError(f"{what} declares {count}, found {found[what]}", lineno)
    return Instance.from_edges(node_count, edges, terminals)


def _parse_int(token: str, lineno: int) -> int:
    digits = token[1:] if token[0] == "-" else token
    if not (digits.isdigit() and digits.isascii()):
        raise ParseError(f"expected integer, got {token!r}", lineno)
    try:
        return int(token)
    except ValueError:  # beyond int's digit limit
        raise ParseError(f"integer of {len(digits)} digits is too long", lineno) from None


def _int_field(tokens: list[str], lineno: int, what: str) -> int:
    if len(tokens) < 2:
        raise ParseError(f"{what} needs a value", lineno)
    if len(tokens) > 2:
        raise ParseError(f"{what} takes one value, got {' '.join(tokens)!r}", lineno)
    return _parse_int(tokens[1], lineno)


def outcome(parse, text: str):
    """The Instance a parser returns, or what it raises: type, line, message."""
    try:
        return parse(text)
    except (ParseError, CapExceeded) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def assert_same_outcome(text: str) -> object:
    expected = outcome(reference_parse_stp, text)
    assert outcome(parse_stp, text) == expected
    return expected


if given is not None:

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(stp_texts())
    def test_small_random_documents_match_the_reference(text):
        assert_same_outcome(text)


# A document of NODES nodes: EDGE_LINES `E` lines over distinct pairs, a
# tenth of them at weight 2, and TERMINAL_LINES `T` lines.  Both blocks
# cross the run cap, the `E` block more than twice.
NODES = 1500
EDGE_LINES = 3 * RUN_LINES + 100
TERMINAL_LINES = RUN_LINES + 100


def document(rng: random.Random) -> tuple[list[str], int, int]:
    """The lines of a well-formed document, the index of its first `E` line
    and the index of its first `T` line."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < EDGE_LINES:
        u, v = rng.sample(range(1, NODES + 1), 2)
        if (v, u) not in pairs:
            pairs.add((u, v))
    listed = sorted(pairs, key=lambda _: rng.random())
    terminals = rng.sample(range(1, NODES + 1), TERMINAL_LINES)
    head = [stpio.STP_MAGIC, "SECTION Graph", f"Nodes {NODES}", f"Edges {EDGE_LINES}"]
    middle = ["END", "SECTION Terminals", f"Terminals {TERMINAL_LINES}"]
    lines = [
        *head,
        *(f"E {u} {v} {1 if rng.random() < 0.9 else 2}" for u, v in listed),
        *middle,
        *(f"T {t}" for t in terminals),
        "END", "EOF",
    ]
    first_t = len(head) + EDGE_LINES + len(middle)
    return lines, len(head), first_t


def _e(lines, at):
    """The three fields of the `E` line at index `at`."""
    return lines[at].split()[1:]


def _edge_at(rng, first_e, lo=0):
    return first_e + rng.randrange(lo, EDGE_LINES)


def dup_in_run(lines, rng, first_e, first_t):
    at = _edge_at(rng, first_e, 60)
    lines[at] = lines[at - rng.randint(1, 50)]


def dup_from_earlier_run(lines, rng, first_e, first_t):
    at = _edge_at(rng, first_e, RUN_LINES + 200)
    u, v, _ = _e(lines, at - rng.randint(RUN_LINES + 50, RUN_LINES + 150))
    lines[at] = f"E {u} {v} 1"


def dup_reversed(lines, rng, first_e, first_t):
    at = _edge_at(rng, first_e, RUN_LINES + 200)
    u, v, w = _e(lines, at - rng.randint(1, RUN_LINES + 150))
    lines[at] = f"E {v} {u} {w}"


def endpoint(value):
    def fault(lines, rng, first_e, first_t):
        at = _edge_at(rng, first_e)
        u, v, w = _e(lines, at)
        lines[at] = f"E {u} {value} {w}" if rng.random() < 0.5 else f"E {value} {v} {w}"
    return fault


def self_loop(lines, rng, first_e, first_t):
    at = _edge_at(rng, first_e)
    u, _, w = _e(lines, at)
    lines[at] = f"E {u} {u} {w}"


def field(index, value):
    """Replace field `index` (1 to 3) of a random `E` line by `value`."""
    def fault(lines, rng, first_e, first_t):
        at = _edge_at(rng, first_e)
        tokens = lines[at].split()
        tokens[index] = value
        lines[at] = " ".join(tokens)
    return fault


def separator(sep):
    """Join the fields of a random `E` line with `sep`."""
    def fault(lines, rng, first_e, first_t):
        at = _edge_at(rng, first_e)
        lines[at] = sep.join(lines[at].split())
    return fault


def line_break(brk):
    """Put `brk` in place of one newline, and half of the time also between
    the fields of one `E` line."""
    def fault(lines, rng, first_e, first_t):
        if rng.random() < 0.5:
            at = _edge_at(rng, first_e)
            lines[at] = lines[at].replace(" ", brk, rng.randint(1, 3))
        at = rng.randrange(len(lines) - 1)
        lines[at] += brk + lines.pop(at + 1)
    return fault


def every_break(brk):
    def fault(lines, rng, first_e, first_t):
        lines[:] = [brk.join(lines)]
    return fault


def lowercase_e(lines, rng, first_e, first_t):
    for _ in range(20):
        at = _edge_at(rng, first_e)
        lines[at] = "e" + lines[at][1:]


def trailing_blanks(lines, rng, first_e, first_t):
    for _ in range(20):
        at = rng.randrange(len(lines))
        lines[at] = rng.choice([" ", "\t", "  \t"]) + lines[at] + rng.choice([" ", "\t "])


def edge_before_nodes(lines, rng, first_e, first_t):
    lines.insert(first_e - 2, lines.pop(_edge_at(rng, first_e)))


def edge_among_terminals(lines, rng, first_e, first_t):
    edge = lines.pop(_edge_at(rng, first_e))
    lines.insert(rng.randrange(first_t - 1, first_t + TERMINAL_LINES - 1), edge)


def run_ends_at_cap(lines, rng, first_e, first_t):
    """A comment after exactly RUN_LINES edge lines, then a duplicate of the
    capped run's last pair right after it, or later."""
    cut = first_e + RUN_LINES * rng.randint(1, 2)
    u, v, _ = _e(lines, cut - 1)
    lines.insert(cut, "# cut")
    if rng.random() < 0.5:
        lines[cut + rng.randint(1, 3)] = f"E {v} {u} 2"


def run_at_cap_then_fault(lines, rng, first_e, first_t):
    """A duplicate on the first line past the cap, of the line before it."""
    at = first_e + RUN_LINES * rng.randint(1, 3)
    lines[at] = lines[at - 1]


def terminal_twice(lines, rng, first_e, first_t):
    at = first_t + rng.randrange(RUN_LINES + 10, TERMINAL_LINES)
    lines[at] = lines[at - rng.randint(1, RUN_LINES + 5)]


def terminal_value(value):
    def fault(lines, rng, first_e, first_t):
        lines[first_t + rng.randrange(TERMINAL_LINES)] = f"T {value}"
    return fault


def second_declaration(index):
    def fault(lines, rng, first_e, first_t):
        if index == "Edges":
            lines.insert(_edge_at(rng, first_e), f"Edges {rng.randint(0, EDGE_LINES)}")
        else:
            at = first_t + rng.randrange(TERMINAL_LINES)
            lines.insert(at, f"Terminals {rng.randint(0, TERMINAL_LINES)}")
    return fault


def huge_field(lines, rng, first_e, first_t):
    at = _edge_at(rng, first_e, 1)
    tokens = lines[at].split()
    tokens[rng.randint(1, 3)] = "1" * 5000
    lines[at] = " ".join(tokens)
    if rng.random() < 0.5:   # an earlier fault in the same run comes first
        u, _, w = _e(lines, at - 1)
        lines[at - 1] = f"E {u} {u} {w}"


FAULTS = {
    "none": (lambda *args: None, False),
    "dup-in-run": (dup_in_run, True),
    "dup-from-earlier-run": (dup_from_earlier_run, True),
    "dup-reversed": (dup_reversed, True),
    "endpoint-0": (endpoint(0), True),
    "endpoint-n+1": (endpoint(NODES + 1), True),
    "self-loop": (self_loop, True),
    "weight-3": (field(3, "3"), True),
    "weight-01": (field(3, "01"), False),
    "endpoint-plus": (field(2, "+4"), True),
    "endpoint-arabic-indic": (field(1, "\u0663"), True),
    "weight-negative": (field(3, "-1"), True),
    "nbsp": (separator("\xa0"), False),
    "tabs": (separator("\t"), False),
    "crlf": (line_break("\r\n"), None),
    "cr": (line_break("\r"), None),
    "form-feed": (line_break("\x0c"), None),
    "next-line": (line_break("\x85"), None),
    "line-separator": (line_break("\u2028"), None),
    "all-crlf": (every_break("\r\n"), False),
    "all-record-separator": (every_break("\x1e"), False),
    "lowercase-e": (lowercase_e, False),
    "trailing-blanks": (trailing_blanks, False),
    "edge-before-nodes": (edge_before_nodes, True),
    "edge-among-terminals": (edge_among_terminals, True),
    "run-ends-at-cap": (run_ends_at_cap, None),
    "run-at-cap-then-fault": (run_at_cap_then_fault, True),
    "terminal-twice": (terminal_twice, True),
    "terminal-0": (terminal_value(0), True),
    "terminal-n+1": (terminal_value(NODES + 1), True),
    "second-edges": (second_declaration("Edges"), True),
    "second-terminals": (second_declaration("Terminals"), True),
    "huge-field": (huge_field, True),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_long_documents_with_one_fault_match_the_reference(fault):
    inject, refused = FAULTS[fault]
    for seed in range(4):
        rng = random.Random(f"{fault}:{seed}")
        lines, first_e, first_t = document(rng)
        inject(lines, rng, first_e, first_t)
        expected = assert_same_outcome("\n".join(lines) + "\n")
        if refused is not None:
            assert isinstance(expected, tuple) == refused, expected


@pytest.mark.parametrize("declared", [True, False], ids=["edges-line", "no-edges-line"])
def test_edge_cap_refuses_the_same_line_as_the_reference(monkeypatch, declared):
    # Caps in the middle of the first run, at the end of the second, one
    # below the number of E lines and at it.  The run that would cross the
    # cap fails in bulk, and the per-line rule refuses the line past it.
    results = []
    add_edges = stpio._add_edges

    def recorded_add_edges(*args):
        results.append(add_edges(*args))
        return results[-1]

    monkeypatch.setattr(stpio, "_add_edges", recorded_add_edges)
    for cap in (RUN_LINES // 2, 2 * RUN_LINES, EDGE_LINES - 1, EDGE_LINES):
        monkeypatch.setattr(stpio, "MAX_EXPECTED_EDGES", cap)
        lines, first_e, _ = document(random.Random(cap))
        if not declared:
            first_e -= 1
            del lines[first_e]
        results.clear()
        expected = assert_same_outcome("\n".join(lines) + "\n")
        if cap == EDGE_LINES:
            assert isinstance(expected, Instance) and all(results)
        elif declared:
            message = f"line {first_e}: Edges {EDGE_LINES} above the limit {cap}"
            assert expected == (CapExceeded, None, message) and results == []
        else:
            message = f"line {first_e + cap + 1}: E line {cap + 1} above the limit {cap}"
            assert expected == (CapExceeded, None, message)
            assert results[-1] is False and results.count(False) == 1
