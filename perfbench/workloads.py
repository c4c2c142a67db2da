"""The benchmark's workloads: instance pools made from the seed, and the
checked procedure each one runs per instance.

Every call into the program goes through its module attribute at call time
(`heuristics.rayward_smith`, not a bound name), so the tracer's wrappers see
the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from stp12 import audit, core, exact, harness, heuristics, sixphase
from stp12 import io as stpio
from stp12.core import CapExceeded, ContractViolation, InputError, Instance

# The subset oracle's cap as the ratio suites apply it (bp-adversarial depth 7
# has 21 nodes).
CORPUS_OPT_CAP = 24
# The worst Rayward-Smith ratio on the full corpus, and where it must occur.
RS_WORST = Fraction(13, 10)
RS_WITNESS = "bp-adversarial(depth=7,seed=0)"


def default_rs(instance: Instance) -> core.Solution:
    return heuristics.rayward_smith(instance)


def default_six_phase(instance: Instance, pack3: str) -> core.Solution:
    return sixphase.six_phase(instance, pack3=pack3)


@dataclass(frozen=True)
class Solvers:
    """The two heuristics under test; tests substitute broken ones."""

    rs: Callable[[Instance], core.Solution] = default_rs
    six_phase: Callable[[Instance, str], core.Solution] = default_six_phase


@dataclass(frozen=True)
class Item:
    """One pool instance: its id, the instance, and its STP text if parsed."""

    iid: str
    instance: Instance
    text: str | None = None


@dataclass
class Outcome:
    latency: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    failures: list[str] = field(default_factory=list)


class _Check:
    """Collects output lines for the digest and the failures found."""

    def __init__(self, item: Item):
        self.item = item
        self.lines: list[str] = []
        self.failures: list[str] = []

    def fail(self, reason: str) -> None:
        self.failures.append(f"{self.item.iid}: {reason}")

    def solution(self, alg: str, result) -> None:
        """Validity, cost recomputation, and the digest line of one result."""
        inst = self.item.instance
        conns = sorted(result.connections)
        self.lines.append(f"{self.item.iid}|{alg}|{result.cost}|{conns}")
        if not core.is_valid_solution(inst, conns):
            self.fail(f"{alg} returned an invalid solution")
        if core.cost(inst, conns) != result.cost:
            self.fail(f"{alg} cost {result.cost} differs from its recomputation")

    def ratio(self, alg: str, cost: int, opt: int, bound: Fraction) -> Fraction | None:
        if opt == 0:
            if cost:
                self.fail(f"{alg} cost {cost} on a zero-cost optimum")
            return None
        ratio = Fraction(cost, opt)
        if ratio > bound:
            self.fail(f"{alg} ratio {ratio} above its bound {bound}")
        return ratio

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


def _run(item: Item, body) -> Outcome:
    """Run one instance's procedure, turning program refusals into failures."""
    check = _Check(item)
    outcome = Outcome()
    try:
        body(check, outcome)
    except (CapExceeded, InputError, ContractViolation) as exc:
        check.fail(f"{type(exc).__name__}: {exc}")
    outcome.digest = check.digest()
    outcome.failures = check.failures
    return outcome


def _gnp_spec(n: int, r: int, seed: int) -> stpio.GeneratorSpec:
    """random-gnp with mean degree about 4."""
    return stpio.GeneratorSpec(
        "random-gnp", {"n": n, "p": Fraction(4, n - 1), "r": r}, seed=seed
    )


def _generated(spec: stpio.GeneratorSpec, parsed: bool) -> Item:
    inst = stpio.generate(spec)
    text = stpio.serialize_stp(inst, spec.instance_id()) if parsed else None
    return Item(spec.instance_id(), inst, text)


def branch_nodes(instance: Instance) -> int:
    """Non-terminals of degree >= 3: the subset oracle's candidates."""
    return sum(
        1
        for v in range(instance.node_count)
        if v not in instance.terminals and instance.adjacency[v].bit_count() >= 3
    )


def subset_work(instance: Instance) -> int:
    """Subsets the subset oracle enumerates: the sum of C(c, i) over
    i <= |R| - 2, with c = branch_nodes(instance)."""
    c = branch_nodes(instance)
    return sum(math.comb(c, i) for i in range(len(instance.terminals) - 1))


def dp_cells(instance: Instance) -> int:
    """Cells of the Dreyfus-Wagner table: 2^|R| * n."""
    return (1 << len(instance.terminals)) * instance.node_count


def pool_sizes(pool: list[Item]) -> dict[str, float]:
    """Mean instance size over the pool, with the oracles' work as log10."""
    count = len(pool)
    insts = [item.instance for item in pool]
    return {
        "size.n": sum(i.node_count for i in insts) / count,
        "size.m": sum(i.edge_count() for i in insts) / count,
        "size.R": sum(len(i.terminals) for i in insts) / count,
        "size.log10_subset_work": math.log10(sum(map(subset_work, insts))) - math.log10(count),
        "size.log10_dp_cells": math.log10(sum(map(dp_cells, insts))) - math.log10(count),
    }


class SolveScale:
    """Large random instances parsed from STP text, solved by both heuristics."""

    name = "solve-scale"
    pool_size = 12
    n, r = 2000, 500
    # Exact 3-star packing is not bounded by its candidate cap at this size
    # (seconds to minutes per instance, varying by seed), so phase 4 packs
    # greedily here; verify-corpus runs the exact packing.
    pack3 = "greedy"

    def build(self, seed: int) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}")
        return [
            _generated(_gnp_spec(self.n, self.r, rng.getrandbits(32)), parsed=True)
            for _ in range(self.pool_size)
        ]

    def warmup(self, pool: list[Item]) -> list[Item]:
        return [_generated(_gnp_spec(200, 50, 0), parsed=True)]

    def process(self, item: Item, solvers: Solvers) -> Outcome:
        def body(check: _Check, out: Outcome) -> None:
            clock = time.perf_counter
            t0 = clock()
            inst = stpio.parse_stp(item.text)
            t1 = clock()
            rs = solvers.rs(inst)
            t2 = clock()
            sp = solvers.six_phase(inst, self.pack3)
            t3 = clock()
            out.latency = t3 - t0
            out.stages = {"rs": t2 - t1, "sixphase": t3 - t2}
            if inst != item.instance:
                check.fail("parse_stp does not return the serialized instance")
            check.solution("rs", rs)
            check.solution("six-phase", sp)

        return _run(item, body)


class VerifyCorpus:
    """The ratio suites' corpus: thousands of tiny instances against the
    subset oracle, with exact rational ratio checks."""

    name = "verify-corpus"
    pack3 = "exact"

    def build(self, seed: int) -> list[Item]:
        return [Item(iid, inst) for iid, inst in harness.full_corpus(seed=seed)]

    def warmup(self, pool: list[Item]) -> list[Item]:
        return pool[:50]

    def process(self, item: Item, solvers: Solvers) -> Outcome:
        def body(check: _Check, out: Outcome) -> None:
            clock = time.perf_counter
            inst = item.instance
            t0 = clock()
            opt = exact.brute_force_opt(inst, max_nodes=CORPUS_OPT_CAP)
            t1 = clock()
            rs = solvers.rs(inst)
            t2 = clock()
            sp = solvers.six_phase(inst, self.pack3)
            t3 = clock()
            out.latency = t3 - t0
            out.stages = {"opt": t1 - t0, "rs": t2 - t1, "sixphase": t3 - t2}
            check.solution("opt", opt)
            check.solution("rs", rs)
            check.solution("six-phase", sp)
            rs_ratio = check.ratio("rs", rs.cost, opt.cost, harness.RS_BOUND)
            check.ratio("six-phase", sp.cost, opt.cost, harness.SIX_PHASE_BOUND)
            if item.iid == RS_WITNESS and rs_ratio != RS_WORST:
                check.fail(f"rs ratio {rs_ratio} on the witness, expected {RS_WORST}")
            elif rs_ratio is not None and rs_ratio > RS_WORST:
                check.fail(f"rs ratio {rs_ratio} above the corpus worst {RS_WORST}")

        return _run(item, body)


class OracleReach:
    """Instances at the reach of the exact oracles, cross-checked, with the
    reference-solution audit of the `audit` command."""

    name = "oracle-reach"
    pack3 = "exact"
    # Every (n, |R|) pair appears `copies` times per pool, so pools of
    # different seeds hold the same mix of sizes.
    slots = tuple((n, r) for n in range(28, 37) for r in (9, 10))
    copies = 4

    def build(self, seed: int) -> list[Item]:
        """Draw each slot's graph until its branch-node count c equals the
        expected value for (n, |R|).  The subset oracle's work grows as
        C(c, |R| - 2), so pinning c keeps the pool's work the same from seed
        to seed while the graphs still differ."""
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for _ in range(self.copies):
            for n, r in self.slots:
                target = expected_branch_nodes(n, r)
                while True:
                    item = _generated(_gnp_spec(n, r, rng.getrandbits(32)), parsed=False)
                    if branch_nodes(item.instance) == target:
                        break
                pool.append(item)
        return pool

    def warmup(self, pool: list[Item]) -> list[Item]:
        return [_generated(_gnp_spec(16, 6, 0), parsed=False)]

    def process(self, item: Item, solvers: Solvers) -> Outcome:
        def body(check: _Check, out: Outcome) -> None:
            clock = time.perf_counter
            inst = item.instance
            t0 = clock()
            bf = exact.brute_force_opt(inst, max_nodes=inst.node_count)
            dw = exact.dreyfus_wagner(inst)
            t1 = clock()
            rs = solvers.rs(inst)
            t2 = clock()
            sp = solvers.six_phase(inst, self.pack3)
            t3 = clock()
            reference = audit.ReferenceSolution(dw.connections)
            audits = []
            for mode in audit.NORMALIZE_MODES:
                normalized, steps = audit.normalize(inst, reference, mode)
                s_comps, _ = audit.decompose(inst, normalized)
                audits.append((mode, normalized, steps, s_comps))
            t4 = clock()
            out.latency = t4 - t0
            out.stages = {"opt": t1 - t0, "rs": t2 - t1, "sixphase": t3 - t2}
            check.solution("brute-force", bf)
            check.solution("dreyfus-wagner", dw)
            if bf.cost != dw.cost:
                check.fail(f"oracles disagree: {bf.cost} vs {dw.cost}")
            check.solution("rs", rs)
            check.solution("six-phase", sp)
            check.ratio("rs", rs.cost, bf.cost, harness.RS_BOUND)
            check.ratio("six-phase", sp.cost, bf.cost, harness.SIX_PHASE_BOUND)
            for mode, normalized, steps, s_comps in audits:
                conns = sorted(normalized.connections)
                cost = core.cost(inst, conns)
                labels = sorted(comp.label() for comp in s_comps)
                check.lines.append(
                    f"{item.iid}|normalize-{mode}|{cost}|{conns}|{len(steps)}|{labels}"
                )
                if not core.is_valid_solution(inst, conns):
                    check.fail(f"normalize {mode} returned an invalid solution")
                if cost != dw.cost + sum(step.cost_delta for step in steps):
                    check.fail(f"normalize {mode} cost does not match its trace")

        return _run(item, body)


def expected_branch_nodes(n: int, r: int) -> int:
    """Rounded mean of c for random-gnp(n, p = 4/(n-1)) with r terminals:
    each of the n - r non-terminals has degree Binomial(n - 1, p)."""
    p = Fraction(4, n - 1)
    below3 = sum(math.comb(n - 1, k) * p**k * (1 - p) ** (n - 1 - k) for k in range(3))
    return round((n - r) * (1 - below3))


WORKLOADS = {w.name: w for w in (SolveScale(), VerifyCorpus(), OracleReach())}
