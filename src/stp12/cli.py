"""Command line front end for batch experimentation.

Subcommands: solve (run an algorithm on instances), compare (ratio report
against the exact optimum, flagging bound violations), audit (normalize an
optimal reference and report the classification histogram), gen (write a
generated instance as an .stp file).

Exit codes: 0 success, 1 reported violation, 2 input/parse error, 3 cap
refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from stp12 import harness
from stp12 import io as stpio
from stp12.audit import ReferenceSolution, decompose, normalize
from stp12.core import CapExceeded, InputError, Instance
from stp12.exact import brute_force_opt, dreyfus_wagner
from stp12.heuristics import rayward_smith
from stp12.sixphase import six_phase

ALGORITHMS = ("rs", "six-phase", "exact", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stp12",
        description="Steiner tree algorithms for metrics with distances 1 and 2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an algorithm on instance files")
    solve.add_argument("inputs", nargs="+", help=".stp instance files")
    solve.add_argument("--alg", choices=ALGORITHMS, default="all")
    solve.add_argument("--finishing", choices=("strict-paper", "cheapest"),
                       default="cheapest")
    solve.add_argument("--pack3", choices=("exact", "greedy"), default="exact")
    solve.add_argument("--witness", action="store_true",
                       help="print the connection set as well")
    solve.add_argument("--out", type=Path, default=None)

    compare = sub.add_parser("compare", help="ratio report against the optimum")
    compare.add_argument("inputs", nargs="*", help=".stp instance files")
    compare.add_argument("--family", choices=stpio.GENERATOR_FAMILIES, default=None)
    compare.add_argument("--param", action="append", default=[],
                         metavar="KEY=VALUE", help="generator parameter")
    compare.add_argument("--count", type=int, default=1,
                         help="instances to generate (seed, seed+1, ...)")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--finishing", choices=("strict-paper", "cheapest"),
                         default="cheapest")
    compare.add_argument("--pack3", choices=("exact", "greedy"), default="exact")
    compare.add_argument("--out", type=Path, default=None)

    audit = sub.add_parser("audit", help="normalize an optimal reference")
    audit.add_argument("inputs", nargs="+", help=".stp instance files")
    audit.add_argument("--mode", choices=("s3", "s4"), default="s3")
    audit.add_argument("--out", type=Path, default=None)

    gen = sub.add_parser("gen", help="write a generated instance")
    gen.add_argument("--family", choices=stpio.GENERATOR_FAMILIES, required=True)
    gen.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "audit":
            return _cmd_audit(args)
        return _cmd_gen(args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _read_instances(paths: list[str]) -> list[tuple[str, Instance]]:
    out = []
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        out.append((Path(path).name, stpio.parse_stp(text)))
    return out


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise InputError(f"--param expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = Fraction(value)
    return params


def _solvers(args) -> dict:
    table = {
        "rs": lambda inst: rayward_smith(inst, args.finishing),
        "six-phase": lambda inst: six_phase(inst, args.finishing, args.pack3),
        "exact": lambda inst: brute_force_opt(inst),
    }
    if args.alg == "all":
        return table
    return {args.alg: table[args.alg]}


def _emit(payload: dict, out: Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False, default=str) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _cmd_solve(args) -> int:
    results = []
    for name, inst in _read_instances(args.inputs):
        per_algorithm = {}
        for alg, run in _solvers(args).items():
            outcome = run(inst)
            entry: dict = {"cost": outcome.cost}
            if args.witness:
                entry["connections"] = sorted(outcome.connections)
            per_algorithm[alg] = entry
            print(f"{name} {alg}: cost {outcome.cost}")
        results.append({"instance": name, "results": per_algorithm})
    if args.out is not None:
        _emit({"solve": results}, args.out)
    return 0


def _cmd_compare(args) -> int:
    instances = _read_instances(args.inputs)
    if args.family is not None:
        params = _parse_params(args.param)
        for i in range(args.count):
            spec = stpio.GeneratorSpec(args.family, params, seed=args.seed + i)
            instances.append((spec.instance_id(), stpio.generate(spec)))
    if not instances:
        raise InputError("compare needs input files or --family")

    runs = (
        ("rs", harness.RS_BOUND,
         lambda inst, log=None: rayward_smith(inst, args.finishing, log=log)),
        ("six-phase", harness.SIX_PHASE_BOUND,
         lambda inst, log=None: six_phase(inst, args.finishing, args.pack3, log=log)),
    )
    out_dir = str(args.out.parent if args.out is not None else Path.cwd())
    reports = []
    worst: dict[str, Fraction] = {}
    violations = []
    for name, inst in instances:
        try:
            opt = brute_force_opt(inst).cost
        except CapExceeded as exc:
            reports.append(stpio.RatioReport(name, None, {}, {}, skipped=str(exc)))
            continue
        costs = {}
        ratios = {}
        traces = {}
        for alg, bound, solve in runs:
            log: list[str] = []
            solution = solve(inst, log)
            key = f"{alg}/{args.finishing}"
            costs[key] = solution.cost
            traces[key] = log
            # The algorithm in the checked name keeps the counterexample
            # files of two algorithms on one instance apart.
            ratio, violation = harness.check_ratio(
                f"{alg}-{name}", inst, solution, opt, solve, bound, out_dir
            )
            if ratio is not None:
                ratios[key] = ratio
            if violation is not None:
                violations.append({**violation, "instance": name, "algorithm": alg})
        reports.append(stpio.RatioReport(name, opt, costs, ratios, traces=traces))

        for key, value in ratios.items():
            if value > worst.get(key, Fraction(0)):
                worst[key] = value

    document = json.loads(stpio.write_report(reports))
    document["max_ratios"] = {
        k: {"num": v.numerator, "den": v.denominator} for k, v in sorted(worst.items())
    }
    document["violations"] = violations
    _emit(document, args.out)
    return 1 if violations else 0


def _cmd_audit(args) -> int:
    audits = []
    for name, inst in _read_instances(args.inputs):
        opt = dreyfus_wagner(inst)
        reference = ReferenceSolution(opt.connections)
        normalized, trace = normalize(inst, reference, args.mode)
        s_comps, c_comps = decompose(inst, normalized)
        histogram: dict[str, int] = {}
        for comp in s_comps:
            histogram[comp.label()] = histogram.get(comp.label(), 0) + 1
        audits.append(
            {
                "instance": name,
                "mode": args.mode,
                "reference_cost": opt.cost,
                "trace": [
                    {
                        "kind": step.kind,
                        "removed": [list(c) for c in step.removed],
                        "added": [list(c) for c in step.added],
                        "cost_delta": step.cost_delta,
                    }
                    for step in trace
                ],
                "classification": dict(sorted(histogram.items())),
                "c_comps": len(c_comps),
            }
        )
        print(f"{name}: {len(trace)} steps, classes {sorted(histogram)}")
    _emit({"audit": audits}, args.out)
    return 0


def _cmd_gen(args) -> int:
    params = _parse_params(args.param)
    spec = stpio.GeneratorSpec(args.family, params, seed=args.seed)
    instance = stpio.generate(spec)
    args.out.write_text(stpio.serialize_stp(instance, spec.instance_id()), encoding="utf-8")
    print(f"wrote {args.out} ({instance.node_count} nodes, "
          f"{len(instance.terminals)} terminals)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
