"""Checks of the benchmark itself: broken solvers must make a run report
failures, and the trace must cover the layers it names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import run

run.import_program()

import workloads  # noqa: E402  (needs the program on sys.path)
from stp12 import core, harness, heuristics  # noqa: E402

SEED = 0  # has a golden digest for verify-corpus


def verify_corpus(solvers=None, trace=False):
    return run.run("verify-corpus", SEED, 0, trace, solvers)


def test_unmodified_solvers_pass_and_match_the_golden_digest():
    cpus = os.sched_getaffinity(0)
    info, result = verify_corpus()
    assert os.sched_getaffinity(0) == cpus  # the CPU rotation is undone
    assert info["digest"] == "match"
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == info["pool"] > 1000
    assert set(result["metrics"]) == set(run.declared_metrics()[0])


def test_solver_dropping_one_connection_fails():
    def drop_one(instance):
        solution = heuristics.rayward_smith(instance)
        return core.Solution.from_connections(instance, sorted(solution.connections)[1:])

    info, result = verify_corpus(workloads.Solvers(rs=drop_one))
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("invalid solution" in reason for reason in info["failures"])


def test_solver_returning_a_valid_costlier_tree_fails():
    def costlier(instance, pack3):
        # Skips every greedy phase: valid, but never cheaper than six-phase.
        return harness.finishing_only_solver(instance)

    info, result = verify_corpus(workloads.Solvers(six_phase=costlier))
    assert not result["correct"]
    assert info["digest"] == "mismatch"
    assert result["failed"] == result["attempted"]


def test_trace_reports_every_layer_metric_with_full_phase_coverage():
    info, result = verify_corpus(trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"], info["failures"]
    assert set(metrics) == set(run.declared_metrics()[1])
    # Zero only where verify-corpus never calls the layer, so no name is a typo.
    zero = {name for name, value in metrics.items() if value == 0}
    assert zero == {
        "io.parse_stp.calls", "io.parse_stp.busy_s", "io.parse_stp.bytes",
        "exact.brute_force_opt.refused", "exact.dreyfus_wagner.calls",
        "exact.dreyfus_wagner.busy_s", "exact.dreyfus_wagner.refused",
        "exact.dreyfus_wagner.dp_cells", "audit.normalize.calls",
        "audit.normalize.busy_s", "audit.normalize.steps", "audit.decompose.busy_s",
    }
    assert metrics["sixphase.phase_coverage"] >= 0.95
    assert metrics["exact.brute_force_opt.calls"] == 1
    assert 0 < metrics["trace.throughput_ratio"] <= 1.5


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-corpus",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_pools_repeat_for_a_seed():
    workload = workloads.WORKLOADS["oracle-reach"]
    first, second = workload.build(3), workload.build(3)
    assert [i.iid for i in first] == [i.iid for i in second]
    # Pinned branch-node counts make the oracles' work the same for any seed.
    other = workload.build(4)
    assert [workloads.subset_work(i.instance) for i in first] == [
        workloads.subset_work(i.instance) for i in other
    ]
