"""Record the golden output digests the benchmark checks its runs against.

    python3 perfbench/golden.py --workload oracle-reach --seeds 0-31

For each seed, builds the workload's pool, runs one untraced pass with
every output check, and stores the digest of the pass in
`golden/<workload>.json`.  A seed whose pass has any failure is not recorded.
Run it only from a commit whose outputs are known to be right; a later run
of the benchmark then fails whenever any output of the program changes.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    run.import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    path = run.GOLDEN_DIR / f"{args.workload}.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    status = 0
    for seed in range(int(first), int(last or first) + 1):
        loop = run.Loop(workload, workload.build(seed), workloads.Solvers(), golden=None)
        loop.run(0)
        if loop.failed:
            print(f"seed {seed}: not recorded, {loop.failures}", file=sys.stderr)
            status = 1
            continue
        table[str(seed)] = run.pass_digest(loop.first_pass)
        print(f"seed {seed}: {table[str(seed)]}", flush=True)
        path.parent.mkdir(exist_ok=True)
        ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
