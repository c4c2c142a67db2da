import json
import time
from fractions import Fraction

import pytest

from stp12 import cli, harness
from stp12 import io as stpio
from stp12.cli import main
from stp12.core import Solution, cost, is_valid_solution
from stp12.exact import brute_force_opt, dreyfus_wagner
from stp12.io import parse_stp
from test_harness import lying_solver

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


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.stp"
    path.write_text(P3_TEXT)
    return path


def test_solve_six_phase_on_p3(p3_file, capsys):
    assert main(["solve", "--alg", "six-phase", str(p3_file)]) == 0
    out = capsys.readouterr().out
    assert "six-phase: cost 2" in out


def test_solve_all_algorithms_agree_on_p3(p3_file, tmp_path, capsys):
    out_path = tmp_path / "solve.json"
    assert main(["solve", str(p3_file), "--witness", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    costs = {alg: entry["cost"] for alg, entry in payload["solve"][0]["results"].items()}
    assert costs == {"rs": 2, "six-phase": 2, "exact": 2}


def test_solve_exact_refuses_over_cap(tmp_path, capsys):
    lines = ["SECTION Graph", "Nodes 25", "Edges 0", "END",
             "SECTION Terminals", "Terminals 1", "T 1", "END", "EOF"]
    path = tmp_path / "big.stp"
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", "--alg", "exact", str(path)]) == 3
    assert "refused" in capsys.readouterr().err


def test_mismatched_declared_counts_exit_two(tmp_path, capsys):
    lines = ["SECTION Graph", "Nodes 3", "Edges 5", "E 1 2 1", "END",
             "SECTION Terminals", "Terminals 7", "T 1", "T 2", "END", "EOF"]
    path = tmp_path / "short.stp"
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(path)]) == 2
    assert "Edges declares 5, found 1" in capsys.readouterr().err


def test_oversized_nodes_exit_three(tmp_path, capsys):
    path = tmp_path / "huge.stp"
    path.write_text("SECTION Graph\nNodes 1000000000000000000\nEND\nEOF\n")
    assert main(["solve", str(path)]) == 3
    assert "refused: line 2: Nodes" in capsys.readouterr().err


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.stp"
    path.write_text("SECTION Graph\nNodes 2\nEdges 1\nE 1 2 7\nEND\nEOF\n")
    assert main(["solve", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("line, field", [(4, "E 1 2 "), (2, "Nodes ")], ids=["weight", "nodes"])
def test_integer_beyond_int_digit_limit_exits_two(tmp_path, capsys, line, field):
    # 5000 digits is past Python's default limit of 4300 for int(str).
    lines = ["SECTION Graph", "Nodes 2", "Edges 1", "E 1 2 1", "END",
             "SECTION Terminals", "Terminals 1", "T 1", "END", "EOF"]
    lines[line - 1] = field + "7" * 5000
    path = tmp_path / "long.stp"
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(path)]) == 2
    assert f"line {line}: integer of 5000 digits is too long" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "compare", "audit"])
def test_non_utf8_input_exits_two(tmp_path, capsys, command):
    # Exit 1 is compare's bound violation; unreadable text is an input error.
    path = tmp_path / "bad.stp"
    path.write_bytes(b"\xff\xfe")
    assert main([command, str(path)]) == 2
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


def test_finishing_mode_dominance(p3_file, tmp_path):
    costs = {}
    for mode in ("cheapest", "strict-paper"):
        out_path = tmp_path / f"{mode}.json"
        assert main(["solve", str(p3_file), "--alg", "rs",
                     "--finishing", mode, "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        costs[mode] = payload["solve"][0]["results"]["rs"]["cost"]
    assert costs["cheapest"] <= costs["strict-paper"]


def test_gen_then_solve_round_trip(tmp_path, capsys):
    out = tmp_path / "gen.stp"
    assert main(["gen", "--family", "star-cluster", "--param", "k=4",
                 "--param", "m=1", "--out", str(out)]) == 0
    inst = parse_stp(out.read_text())
    assert inst.node_count == 5
    assert main(["solve", "--alg", "rs", str(out)]) == 0
    assert "cost 4" in capsys.readouterr().out


def test_gen_rejects_bad_params(tmp_path, capsys):
    out = tmp_path / "x.stp"
    assert main(["gen", "--family", "random-gnp", "--param", "n=5",
                 "--param", "p=3/2", "--param", "r=1", "--out", str(out)]) == 2


@pytest.mark.parametrize(
    "value",
    ["n=abc", "n=1/0", "n=15/2", "r=5/2", "n=1_0", "p=\u0663/\u0664", "n=+9", "r=\uff12",
     "p=1/2_0", "n= 9"],
)
def test_gen_malformed_param_exits_two(tmp_path, capsys, value):
    # A value that is no number, or not a whole number where one is needed,
    # is an input error, never a traceback or a silently truncated size.
    # Numbers are ASCII digits with an optional minus sign, and no
    # underscores, plus signs or spaces.
    params = {"n": "n=9", "p": "p=1/2", "r": "r=2"}
    params[value.split("=")[0]] = value
    out = tmp_path / "x.stp"
    args = ["gen", "--family", "random-gnp", "--out", str(out)]
    for pair in params.values():
        args += ["--param", pair]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("random-gnp", ["n=10", "p=1/2", "r=3", "typo=1"], "random-gnp has no parameter 'typo'"),
        ("random-gnp", ["n=10", "p=1/2", "r=3", "n=12"], "--param n is given twice"),
        ("random-gnp", ["=3", "n=10", "p=1/2", "r=3"], "random-gnp has no parameter ''"),
        ("star-cluster", ["k=4", "m=1", "n=5"], "star-cluster has no parameter 'n'"),
    ],
)
def test_gen_refuses_unknown_repeated_or_empty_params(tmp_path, capsys, family, params, message):
    # A key the family does not read is never accepted silently, and a
    # repeated key never overrides the first.
    out = tmp_path / "x.stp"
    args = ["gen", "--family", family, "--out", str(out)]
    for pair in params:
        args += ["--param", pair]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_compare_refuses_a_repeated_param(capsys):
    assert main(["compare", "--family", "star-cluster", "--param", "k=4", "--param", "m=1",
                 "--param", "m=2"]) == 2
    assert "--param m is given twice" in capsys.readouterr().err


def test_gen_refuses_too_many_nodes(tmp_path, capsys):
    # Just above the limit, so that a missing cap fails fast instead of
    # drawing or allocating without bound.
    out = tmp_path / "x.stp"
    assert main(["gen", "--family", "star-cluster", "--param", "k=100000",
                 "--param", "m=1", "--out", str(out)]) == 3
    assert "refused: star-cluster makes 100001 nodes" in capsys.readouterr().err
    assert not out.exists()


def test_gen_refuses_random_gnp_above_its_limit(tmp_path, capsys):
    out = tmp_path / "x.stp"
    assert main(["gen", "--family", "random-gnp", "--param", "n=10001",
                 "--param", "p=1/10000", "--param", "r=1", "--out", str(out)]) == 3
    assert "use random-sparse" in capsys.readouterr().err
    assert not out.exists()


def test_compare_reports_ratios_and_max(tmp_path):
    out_path = tmp_path / "report.json"
    code = main([
        "compare", "--family", "bp-adversarial", "--param", "depth=4",
        "--out", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["schema_version"] == 1
    report = payload["reports"][0]
    assert report["opt_cost"] == 11
    assert report["algorithm_costs"]["rs/cheapest"] == 14
    assert report["ratios"]["rs/cheapest"] == {"num": 14, "den": 11}
    assert payload["max_ratios"]["rs/cheapest"] == {"num": 14, "den": 11}
    assert payload["violations"] == []


def test_compare_document_format(p3_file, tmp_path):
    out_path = tmp_path / "report.json"
    assert main(["compare", str(p3_file), "--out", str(out_path)]) == 0
    one = {"num": 1, "den": 1}
    runs = ("rs/cheapest", "six-phase/cheapest")
    expected = {
        "schema_version": 1,
        "reports": [{
            "instance": "p3.stp",
            "opt_cost": 2,
            "algorithm_costs": dict.fromkeys(runs, 2),
            "ratios": dict.fromkeys(runs, one),
            "skipped": None,
            "traces": {
                "rs/cheapest": ["preprocessing: cost 0", "finishing (cheapest): cost 2"],
                "six-phase/cheapest": [
                    "phase 1 terminal edges: cost 0",
                    "phase 4 packed 0 disjoint 3-stars (exact)",
                    "phase 5 upgraded 0 to (1,3)-comets: cost 0",
                    "finishing (cheapest): cost 2",
                ],
            },
        }],
        "max_ratios": dict.fromkeys(runs, one),
        "violations": [],
    }
    assert out_path.read_text() == json.dumps(expected, indent=2) + "\n"


def test_compare_checks_the_depth7_witness(tmp_path):
    # n = 21: the harness and compare share one oracle cap, so the paper's
    # 13/10 witness is checked here rather than skipped.
    out_path = tmp_path / "report.json"
    code = main([
        "compare", "--family", "bp-adversarial", "--param", "depth=7",
        "--out", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    report = payload["reports"][0]
    assert not report["skipped"]
    assert report["opt_cost"] == 20
    assert payload["max_ratios"]["rs/cheapest"] == {"num": 13, "den": 10}
    assert payload["violations"] == []


def test_compare_reports_and_dumps_a_violation(tmp_path, monkeypatch):
    # Negative control: skipping every greedy phase costs 6 on a 4-star
    # whose optimum is 4, above the 4/3 bound.
    def weak_rs(inst, mode, log=None):
        return harness.finishing_only_solver(inst, mode)

    monkeypatch.setattr(cli, "rayward_smith", weak_rs)
    out_path = tmp_path / "report.json"
    code = main([
        "compare", "--family", "star-cluster", "--param", "k=4", "--param", "m=1",
        "--out", str(out_path),
    ])
    assert code == 1
    payload = json.loads(out_path.read_text())
    [violation] = payload["violations"]
    assert violation["algorithm"] == "rs"
    assert violation["reason"] == "ratio above bound"
    dumped = parse_stp((tmp_path / violation["path"]).read_text())
    opt = brute_force_opt(dumped).cost
    assert Fraction(weak_rs(dumped, "cheapest").cost, opt) > harness.RS_BOUND


def test_compare_flags_an_invalid_solution(tmp_path, monkeypatch):
    def no_connections(inst, mode, pack3, log=None):
        return Solution.from_connections(inst, [])

    monkeypatch.setattr(cli, "six_phase", no_connections)
    out_path = tmp_path / "report.json"
    code = main([
        "compare", "--family", "star-cluster", "--param", "k=4", "--param", "m=1",
        "--out", str(out_path),
    ])
    assert code == 1
    [violation] = json.loads(out_path.read_text())["violations"]
    assert violation["algorithm"] == "six-phase"
    assert violation["reason"] == "invalid solution"


def test_compare_recomputes_a_lying_solvers_cost(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "rayward_smith", lying_solver)
    out_path = tmp_path / "report.json"
    code = main([
        "compare", "--family", "star-cluster", "--param", "k=4", "--param", "m=1",
        "--out", str(out_path),
    ])
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["reports"][0]["algorithm_costs"]["rs/cheapest"] == 6
    [violation] = payload["violations"]
    assert violation["algorithm"] == "rs"
    assert violation["reason"] == "cost mismatch"


def test_compare_reports_a_connection_outside_the_instance(tmp_path, monkeypatch):
    def outside(inst, mode, pack3, log=None):
        return Solution(frozenset({(0, inst.node_count)}), 2)

    monkeypatch.setattr(cli, "six_phase", outside)
    out_path = tmp_path / "report.json"
    code = main([
        "compare", "--family", "star-cluster", "--param", "k=4", "--param", "m=1",
        "--out", str(out_path),
    ])
    assert code == 1
    [violation] = json.loads(out_path.read_text())["violations"]
    assert violation["reason"] == "invalid solution"


def test_compare_skips_over_cap_instances(tmp_path):
    out_path = tmp_path / "report.json"
    code = main([
        "compare", "--family", "random-gnp", "--param", "n=30",
        "--param", "p=1/10", "--param", "r=3", "--out", str(out_path),
    ])
    assert code == 3
    payload = json.loads(out_path.read_text())
    assert payload["reports"][0]["skipped"]


def test_compare_refuses_a_count_below_one(capsys):
    assert main(["compare", "--family", "star-cluster", "--param", "k=4",
                 "--param", "m=1", "--count", "-2"]) == 2
    assert "--count" in capsys.readouterr().err


def test_compare_refuses_a_count_above_its_limit_before_any_draw(monkeypatch, capsys):
    def no_draw(spec):
        raise AssertionError("compare drew an instance")

    monkeypatch.setattr(stpio, "generate", no_draw)
    assert main(["compare", "--family", "star-cluster", "--param", "k=4", "--param", "m=1",
                 "--count", str(cli.MAX_COMPARE_COUNT + 1)]) == 3
    assert f"above the limit {cli.MAX_COMPARE_COUNT}" in capsys.readouterr().err


def test_compare_draws_each_instance_when_its_check_reaches_it(tmp_path, monkeypatch):
    calls = []

    def recorded(name, run):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return run(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(stpio, "generate", recorded("generate", stpio.generate))
    monkeypatch.setattr(harness, "brute_force_opt", recorded("opt", harness.brute_force_opt))
    assert main(["compare", "--family", "star-cluster", "--param", "k=4", "--param", "m=1",
                 "--count", "3", "--out", str(tmp_path / "report.json")]) == 0
    assert calls == ["generate", "opt"] * 3


def test_compare_refuses_no_instances(capsys):
    assert main(["compare"]) == 2
    assert "compare needs input files or --family" in capsys.readouterr().err


def test_compare_with_one_instance_in_cap_exits_zero(p3_file, tmp_path):
    lines = ["SECTION Graph", "Nodes 25", "Edges 0", "END",
             "SECTION Terminals", "Terminals 2", "T 1", "T 2", "END", "EOF"]
    big = tmp_path / "big.stp"
    big.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "report.json"
    assert main(["compare", str(p3_file), str(big), "--out", str(out_path)]) == 0
    reports = json.loads(out_path.read_text())["reports"]
    assert [bool(r["skipped"]) for r in reports] == [False, True]


def test_compare_identical_runs_are_byte_identical(tmp_path):
    args = ["compare", "--family", "random-gnp", "--param", "n=9",
            "--param", "p=2/5", "--param", "r=4", "--count", "5", "--seed", "11"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("count, pack3, code, expected", [
    (512, "exact", 0, "six-phase: cost 2558"),
    (513, "exact", 3, "refused: 3-star packing has 513 candidates > cap 512; "
                      "use the greedy strategy"),
    (513, "greedy", 0, "six-phase: cost 2563"),
])
def test_solve_at_the_3_star_packing_cap(tmp_path, capsys, count, pack3, code, expected):
    # comet-chain with a = 0 gives `count` disjoint 3-stars, one candidate each.
    gen_path = tmp_path / "stars.stp"
    assert main(["gen", "--family", "comet-chain", "--param", "a=0", "--param", "b=3",
                 "--param", f"count={count}", "--out", str(gen_path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(gen_path), "--alg", "six-phase", "--pack3", pack3]) == code
    captured = capsys.readouterr()
    assert expected in (captured.out if code == 0 else captured.err)


def test_audit_path3_trace_empty(p3_file, tmp_path, capsys):
    out_path = tmp_path / "audit.json"
    assert main(["audit", str(p3_file), "--mode", "s3", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    entry = payload["audit"][0]
    assert entry["trace"] == [] or all(s["kind"] == "path" for s in entry["trace"])


def test_audit_comet_gadget_s4_keeps_comet(tmp_path):
    gen_path = tmp_path / "comet.stp"
    assert main(["gen", "--family", "comet-chain", "--param", "a=1",
                 "--param", "b=3", "--param", "count=1", "--out", str(gen_path)]) == 0
    out_path = tmp_path / "audit.json"
    assert main(["audit", str(gen_path), "--mode", "s4", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert "comet(1,3)" in payload["audit"][0]["classification"]


def test_audit_long_path_optimum(tmp_path):
    # optimum of two far terminals joined through two Steiner nodes is the
    # direct non-edge, so the audit trace is already normal
    lines = ["SECTION Graph", "Nodes 4", "Edges 3",
             "E 1 2 1", "E 2 3 1", "E 3 4 1", "END",
             "SECTION Terminals", "Terminals 2", "T 1", "T 4", "END", "EOF"]
    path = tmp_path / "path4.stp"
    path.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "audit.json"
    assert main(["audit", str(path), "--mode", "s3", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    entry = payload["audit"][0]
    assert entry["classification"] in ({}, {"terminal-edge": 1})


def test_audit_beyond_subset_oracle_cap(tmp_path):
    # n = 26 is over the subset oracle's cap, but |R| = 8 is within the
    # Dreyfus-Wagner cap, and that oracle provides the reference.
    gen_path = tmp_path / "gnp.stp"
    assert main(["gen", "--family", "random-gnp", "--param", "n=26",
                 "--param", "p=1/5", "--param", "r=8", "--out", str(gen_path)]) == 0
    out_path = tmp_path / "audit.json"
    assert main(["audit", str(gen_path), "--mode", "s4", "--out", str(out_path)]) == 0
    entry = json.loads(out_path.read_text())["audit"][0]
    assert entry["reference_cost"] > 0
    # Seed 5 in s3 mode takes a bridge and a path step; each step is written
    # field by field, in the order NormalizationStep declares them.
    assert main(["gen", "--family", "random-gnp", "--param", "n=26", "--param", "p=1/5",
                 "--param", "r=8", "--seed", "5", "--out", str(gen_path)]) == 0
    assert main(["audit", str(gen_path), "--mode", "s3", "--out", str(out_path)]) == 0
    trace = json.loads(out_path.read_text())["audit"][0]["trace"]
    assert [list(step) for step in trace] == [["kind", "removed", "added", "cost_delta"]] * 2
    assert trace == [
        {"kind": "bridge", "removed": [[2, 24]], "added": [[4, 13]], "cost_delta": 1},
        {"kind": "path", "removed": [[2, 13], [2, 20]], "added": [[4, 20]], "cost_delta": 0},
    ]


def test_audit_refuses_beyond_the_dreyfus_wagner_terminal_cap(tmp_path, capsys):
    gen_path = tmp_path / "gnp.stp"
    assert main(["gen", "--family", "random-gnp", "--param", "n=20",
                 "--param", "p=1/5", "--param", "r=13", "--out", str(gen_path)]) == 0
    capsys.readouterr()
    assert main(["audit", str(gen_path)]) == 3
    assert "refused: dreyfus_wagner refuses |R|=13 > cap 12" in capsys.readouterr().err


def test_audit_reaches_two_thousand_nodes_with_ten_terminals(tmp_path):
    # The reference is the Dreyfus-Wagner optimum: 2^10 bitmask rows over
    # n = 2000 nodes take a few hundredths of a second.
    gen_path = tmp_path / "gnp.stp"
    assert main(["gen", "--family", "random-gnp", "--param", "n=2000",
                 "--param", "p=4/1999", "--param", "r=10", "--out", str(gen_path)]) == 0
    out_path = tmp_path / "audit.json"
    start = time.perf_counter()
    assert main(["audit", str(gen_path), "--out", str(out_path)]) == 0
    assert time.perf_counter() - start < 1.0
    entry = json.loads(out_path.read_text())["audit"][0]
    inst = parse_stp(gen_path.read_text())
    witness = dreyfus_wagner(inst).connections
    assert is_valid_solution(inst, witness)
    assert entry["reference_cost"] == cost(inst, witness)
