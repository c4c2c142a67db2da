"""Command line front end for batch experimentation.

Subcommands: solve (run an algorithm on instances), compare (ratio report
against the exact optimum, flagging bound violations), audit (normalize an
optimal reference and report the classification histogram), gen (write a
generated instance as an .stp file).

Exit codes: 0 success, 1 reported violation, 2 input/parse error, 3 cap
refusal (for compare: the oracle cap skipped every instance).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from itertools import chain
from pathlib import Path

from stp12 import harness
from stp12 import io as stpio
from stp12.audit import NORMALIZE_MODES, ReferenceSolution, decompose, normalize
from stp12.core import CapExceeded, InputError, Instance
from stp12.exact import brute_force_opt, dreyfus_wagner
from stp12.heuristics import FINISHING_MODES, rayward_smith
from stp12.sixphase import PACK3_STRATEGIES, six_phase

ALGORITHMS = ("rs", "six-phase", "exact", "all")
# Version of the JSON document `compare` writes.
REPORT_SCHEMA_VERSION = 1
# A --param value: an integer, a ratio a/b or a decimal, in ASCII digits.
NUMBER = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")
# Most instances `compare --family` generates; a larger --count is refused
# before the first draw.
MAX_COMPARE_COUNT = 10_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stp12",
        description="Steiner tree algorithms for metrics with distances 1 and 2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an algorithm on instance files")
    solve.add_argument("inputs", nargs="+", help=".stp instance files")
    solve.add_argument("--alg", choices=ALGORITHMS, default="all")
    solve.add_argument("--finishing", choices=FINISHING_MODES, default="cheapest")
    solve.add_argument("--pack3", choices=PACK3_STRATEGIES, default="exact")
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
    compare.add_argument("--finishing", choices=FINISHING_MODES, default="cheapest")
    compare.add_argument("--pack3", choices=PACK3_STRATEGIES, default="exact")
    compare.add_argument("--out", type=Path, default=None)

    audit = sub.add_parser("audit", help="normalize an optimal reference")
    audit.add_argument("inputs", nargs="+", help=".stp instance files")
    audit.add_argument("--mode", choices=NORMALIZE_MODES, default="s3")
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
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from None
        out.append((Path(path).name, stpio.parse_stp(text)))
    return out


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise InputError(f"--param expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        if key in params:
            raise InputError(f"--param {key} is given twice")
        number = NUMBER.fullmatch(value)
        try:
            if number is None:
                raise ValueError
            params[key] = Fraction(value) if number[1] else int(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"--param {key} needs a number, got {value!r}") from None
    return params


def _solvers(args) -> dict:
    """Each algorithm's run on one instance, with an optional log."""
    return {
        "rs": lambda inst, log=None: rayward_smith(inst, args.finishing, log=log),
        "six-phase": lambda inst, log=None: six_phase(inst, args.finishing, args.pack3, log=log),
        "exact": lambda inst, log=None: brute_force_opt(inst),
    }


def _emit(payload: dict, out: Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False, default=str) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _cmd_solve(args) -> int:
    solvers = _solvers(args)
    if args.alg != "all":
        solvers = {args.alg: solvers[args.alg]}
    results = []
    for name, inst in _read_instances(args.inputs):
        per_algorithm = {}
        for alg, run in solvers.items():
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
    if not args.inputs and args.family is None:
        raise InputError("compare needs input files or --family")
    instances = _read_instances(args.inputs)
    if args.family is not None:
        if args.count < 1:
            raise InputError(f"--count must be at least 1, got {args.count}")
        if args.count > MAX_COMPARE_COUNT:
            raise CapExceeded(f"--count {args.count} above the limit {MAX_COMPARE_COUNT}")
        params = _parse_params(args.param)
        # Drawn one at a time as the check reaches them.
        specs = (stpio.GeneratorSpec(args.family, params, seed=args.seed + i)
                 for i in range(args.count))
        instances = chain(instances, ((spec.instance_id(), stpio.generate(spec))
                                      for spec in specs))

    solvers = _solvers(args)
    runs = [(alg, bound, solvers[alg])
            for alg, bound in (("rs", harness.RS_BOUND), ("six-phase", harness.SIX_PHASE_BOUND))]
    out_dir = str(args.out.parent if args.out is not None else Path.cwd())
    checks = harness.check_instances(instances, runs, out_dir)
    reports = []
    worst: dict[str, Fraction] = {}
    violations = []
    for check in checks:
        keyed = {f"{run}/{args.finishing}": result for run, result in check.runs.items()}
        ratios = {k: r.ratio for k, r in keyed.items() if r.ratio is not None}
        reports.append({
            "instance": check.name,
            "opt_cost": check.opt,
            "algorithm_costs": {k: r.cost for k, r in keyed.items()},
            "ratios": {k: harness.fraction_json(v) for k, v in ratios.items()},
            "skipped": check.skipped,
            "traces": {k: r.log for k, r in keyed.items()},
        })
        violations.extend(r.violation for r in keyed.values() if r.violation is not None)
        worst.update({k: max(v, worst.get(k, v)) for k, v in ratios.items()})

    _emit({
        "schema_version": REPORT_SCHEMA_VERSION,
        "reports": reports,
        "max_ratios": {k: harness.fraction_json(v) for k, v in sorted(worst.items())},
        "violations": violations,
    }, args.out)
    if violations:
        return 1
    if all(check.skipped for check in checks):
        print("refused: the oracle cap skipped every instance", file=sys.stderr)
        return 3
    return 0


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
                "trace": [asdict(step) for step in trace],
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
