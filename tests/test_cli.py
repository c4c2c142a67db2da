import json
from fractions import Fraction

import pytest

from stp12 import cli, harness
from stp12.cli import main
from stp12.core import Solution
from stp12.exact import brute_force_opt
from stp12.io import parse_stp

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


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.stp"
    path.write_text("SECTION Graph\nNodes 2\nEdges 1\nE 1 2 7\nEND\nEOF\n")
    assert main(["solve", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


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


def test_compare_skips_over_cap_instances(tmp_path):
    out_path = tmp_path / "report.json"
    code = main([
        "compare", "--family", "random-gnp", "--param", "n=30",
        "--param", "p=1/10", "--param", "r=3", "--out", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["reports"][0]["skipped"]


def test_compare_identical_runs_are_byte_identical(tmp_path):
    args = ["compare", "--family", "random-gnp", "--param", "n=9",
            "--param", "p=2/5", "--param", "r=4", "--count", "5", "--seed", "11"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


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
