"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ladder-sparse --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with span wrappers installed from
outside the package and prints the per-layer metrics instead (and
writes a Chrome trace-event file under ``.bench_out/``).  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

The line before it carries the provenance and diagnostics of the run.
The command exits non-zero when any output check fails.  See README.md
for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ladder-sparse", "serve-churn", "grid-table2"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes (not a measurement)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: on a host of a few shared cores, a second BLAS
    # thread spinning beside the interpreter measures the scheduler.
    # Set before numpy loads; the serve daemon inherits it.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    measure, traced = workloads.RUNNERS[args.workload]
    runner = traced if args.trace else measure
    try:
        result = runner(args.seed, args.seconds, sizes)
    finally:
        workloads.cleanup()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": workloads.provenance(result.inputs),
        "checks": result.check_summary(),
        "info": result.info,
    }
    line = {
        "correct": result.failed == 0,
        "attempted": len(result.checks),
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    out = workloads.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(report, result=line), indent=1, default=str) + "\n",
                   encoding="utf-8")
    for name, ok in result.checks:
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps(report, default=str))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
