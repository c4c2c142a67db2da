"""stp12 benchmark: one closed-loop client, one instance at a time.

    python3 perfbench/run.py --workload solve-scale --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's `src/` tree.  The run sets up its instance pool from the seed
(several times, reporting the median), then processes whole passes over the
pool, as many as bring the measured time nearest to --seconds, at least one.
It pins itself to each allowed CPU in turn, so that one slow vCPU of a
shared host does not set a run's figures.
Every output is checked: validity, cost recomputation, ratio bounds, oracle
agreement, and a digest of all outputs against `golden/<workload>.json`.

The last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The line before it records
the machine, the instance sizes, the latency tail and any failures.  With
--trace 1 each instance runs twice, untraced and traced in alternating order,
so the tracing overhead is measured on the same instances.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
SETUP_REPEATS = 5
# The measured loop moves to the next allowed CPU between instances once this
# much time has passed since its last move (see CpuRotation).
MIGRATE_EVERY_S = 0.25
WORKLOAD_NAMES = ("solve-scale", "verify-corpus", "oracle-reach")
PROGRAM_MODULES = (
    "stp12", "stp12.core", "stp12.io", "stp12.heuristics", "stp12.sixphase",
    "stp12.matching", "stp12.exact", "stp12.audit", "stp12.harness",
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, no BENCHMARK.json)."""


def import_program() -> float:
    """Import stp12 from the checkout's src tree; returns the seconds it took."""
    if not (SRC / "stp12" / "__init__.py").is_file():
        raise BenchError(f"no program at {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["stp12"].__file__).resolve()
    if SRC not in origin.parents:
        raise BenchError(f"stp12 imported from {origin}, not from {SRC}")
    return elapsed


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric names with their units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "load_1min": os.getloadavg()[0],
    }


def golden_digest(workload: str, seed: int) -> str | None:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def pass_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


class CpuRotation:
    """Pins the process to each allowed CPU in turn.

    The vCPUs of a shared host run at speeds that differ from one another by
    up to 15% and change over tens of seconds, so a run that stays on one of
    them measures that vCPU; a run that rotates samples all of them.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.enabled = len(self.cpus) > 1

    def next(self) -> None:
        if not self.enabled:
            return
        try:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1
        except OSError:
            # A sandbox may refuse pinning; the run then stays unpinned.
            self.enabled = False

    def release(self) -> None:
        if self.turn:
            os.sched_setaffinity(0, self.cpus)


def setup(workload, seed: int, solvers):
    """Build the pool and warm up, SETUP_REPEATS times, each on the next CPU;
    median seconds and pool."""
    times = []
    rotation = CpuRotation()
    for _ in range(SETUP_REPEATS):
        rotation.next()
        start = time.perf_counter()
        pool = workload.build(seed)
        for item in workload.warmup(pool):
            workload.process(item, solvers)
        times.append(time.perf_counter() - start)
    rotation.release()
    return statistics.median(times), pool


@dataclass
class Pass:
    """Untraced runs of one pass over the pool."""

    wall: float = 0.0                      # the whole pass, traced runs included
    count: int = 0
    stages: dict[str, float] = field(default_factory=dict)


class Loop:
    """Closed-loop measurement over whole passes of the pool."""

    def __init__(self, workload, pool, solvers, golden: str | None, tracer=None):
        self.workload = workload
        self.pool = pool
        self.solvers = solvers
        self.golden = golden
        self.tracer = tracer
        self.latencies: list[float] = []      # untraced runs
        self.traced_latency = 0.0
        self.stages: dict[str, float] = {}     # untraced runs, summed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_pass: list[str] = []
        self.digest_state = "unchecked"
        self.pass_log: list[Pass] = []
        self._current = Pass()
        self._rotation = CpuRotation()
        self._moved = float("-inf")

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        try:
            while True:
                pass_start = time.perf_counter()
                digests = []
                for index, item in enumerate(self.pool):
                    if time.perf_counter() - self._moved >= MIGRATE_EVERY_S:
                        self._rotation.next()
                        self._moved = time.perf_counter()
                    digests.append(self._instance(index, item))
                now = time.perf_counter()
                self._current.wall = now - pass_start
                self._end_pass(digests)
                if now - start + (now - pass_start) / 2 >= seconds:
                    break
        finally:
            self._rotation.release()
        if self.digest_state == "mismatch":
            self.failed = self.attempted

    def _instance(self, index: int, item) -> str:
        """Run one pool instance (twice when tracing); returns its digest.

        A run fails on any failed check, and when its outputs differ from
        the instance's first run."""
        order = [False]
        if self.tracer is not None:
            order = [False, True] if index % 2 == 0 else [True, False]
        runs = [self._record(item, traced) for traced in order]
        first = self.first_pass[index] if self.pass_log else runs[0].digest
        for out in runs:
            if out.digest != first:
                out.failures.append(f"{item.iid}: outputs differ from its first run")
            if out.failures:
                self.failed += 1
                self.note(*out.failures)
        return first

    def _record(self, item, traced: bool):
        if traced:
            self.tracer.install()
        try:
            out = self.workload.process(item, self.solvers)
        finally:
            if traced:
                self.tracer.uninstall()
        self.attempted += 1
        if traced:
            self.traced_latency += out.latency
        else:
            self.latencies.append(out.latency)
            self._current.count += 1
            for stage, seconds in out.stages.items():
                self.stages[stage] = self.stages.get(stage, 0.0) + seconds
                self._current.stages[stage] = self._current.stages.get(stage, 0.0) + seconds
        return out

    def note(self, *reasons: str) -> None:
        """Keep the first few failure reasons for the report."""
        self.failures.extend(reasons[: max(0, 10 - len(self.failures))])

    def _end_pass(self, digests: list[str]) -> None:
        self.pass_log.append(self._current)
        self._current = Pass()
        if len(self.pass_log) > 1:
            return
        self.first_pass = digests
        if self.golden is not None:
            ok = pass_digest(digests) == self.golden
            self.digest_state = "match" if ok else "mismatch"
            if not ok:
                self.note("output digest differs from the golden digest")

    def tail(self) -> dict | None:
        """Highest percentile with ten samples beyond it, if above the median."""
        ordered = sorted(self.latencies)
        k = len(ordered) - 11
        if k < 0 or (k + 1) / len(ordered) <= 0.5:
            return None
        return {
            "percentile": round(100 * (k + 1) / len(ordered), 3),
            "ms": ordered[k] * 1e3,
            "samples": len(ordered),
        }


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    """Rates and stage means are medians over the run's passes."""
    def stage_ms(stage: str) -> float:
        return statistics.median(p.stages[stage] / p.count for p in loop.pass_log) * 1e3

    return {
        "setup_s": setup_s,
        "instances_per_s": statistics.median(p.count / p.wall for p in loop.pass_log),
        "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
        "rs_ms": stage_ms("rs"),
        "sixphase_ms": stage_ms("sixphase"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(loop: Loop, tracer, setup_stats, pool_sizes) -> dict[str, float]:
    """Per traced instance means of every span and counter, plus ratios."""
    traced = len(loop.latencies)
    values: dict[str, float] = dict(pool_sizes)
    for name, stat in tracer.stats.items():
        values[f"{name}.calls"] = stat.calls / traced
        values[f"{name}.busy_s"] = stat.busy / traced
        values[f"{name}.self_s"] = stat.self_time / traced
    for name, total in tracer.counters.items():
        values[name] = total / traced
    for name, stat in setup_stats.items():
        values[f"{name}.busy_s"] = stat.busy

    def get(name: str) -> float:
        return values.get(name, 0.0)

    phases = sum(get(f"sixphase.phase{i}_s") for i in range(1, 7))
    six = get("sixphase.six_phase.busy_s")
    untraced = sum(loop.latencies)
    values.update({
        "sixphase.phase_coverage": (phases + get("sixphase.finishing_s")) / six if six else 0.0,
        "matching.useful_frac": (
            get("matching.useful_calls") / get("matching.max_matching.calls")
            if get("matching.max_matching.calls") else 0.0
        ),
        "opt_ms": loop.stages.get("opt", 0.0) / traced * 1e3,
        "opt_share": loop.stages.get("opt", 0.0) / untraced,
        "trace.throughput_ratio": untraced / loop.traced_latency,
    })
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        solvers=None) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (info, result) for printing."""
    import_s = import_program() if "stp12" not in sys.modules else 0.0
    e2e_units, layer_units = declared_metrics()
    import tracing  # these import the program, so only now
    import workloads

    info = {"workload": workload_name, "seed": seed, "machine": machine()}
    workload = workloads.WORKLOADS[workload_name]
    solvers = solvers or workloads.Solvers()
    golden = golden_digest(workload_name, seed)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            pool = workload.build(seed)
        finally:
            tracer.uninstall()
        setup_stats = dict(tracer.stats)
        tracer.reset()
        for item in workload.warmup(pool):
            workload.process(item, solvers)
    else:
        setup_s, pool = setup(workload, seed, solvers)
        setup_s += import_s

    loop = Loop(workload, pool, solvers, golden, tracer)
    loop.run(seconds)
    pool_sizes = workloads.pool_sizes(pool)
    spans_ok = True
    if trace:
        values = per_layer(loop, tracer, setup_stats, pool_sizes)
        # A layer the workload never calls reports zero.
        values = {name: values.get(name, 0.0) for name in layer_units}
        coverage = values["sixphase.phase_coverage"]
        spans_ok = coverage >= 0.95
        if not spans_ok:
            loop.note(f"phase spans cover {coverage:.3f} < 0.95 of six_phase")
        units = layer_units
    else:
        values = end_to_end(loop, setup_s)
        units = e2e_units
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")

    info.update({
        "sizes": pool_sizes,
        "pool": len(pool),
        "passes": len(loop.pass_log),
        "digest": loop.digest_state,
        "failed_frac": loop.failed / loop.attempted,
        "latency_tail": loop.tail(),
        "failures": loop.failures,
    })
    result = {
        "correct": loop.failed == 0 and spans_ok,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
