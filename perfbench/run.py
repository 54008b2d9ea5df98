"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory; nothing
is installed or built.  The run prints a human-readable table (every
end-to-end metric of the workload by name and unit, the simulated
results, the output fingerprint and any check failures) and, as its
last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones.  The exit code is 0 when every output
check passed, 1 when one failed, and 2 when the program source is
missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(
            f"perfbench: imported repro from {repro.__file__}, not {package}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    import_program()
    from harness import run_workload
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    outcome = run_workload(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace)
    )
    print(f"workload {outcome.workload}  seed {outcome.seed}  "
          f"trace {args.trace}")
    for name, value, unit in outcome.report:
        print(f"  {name:<24} {format_value(value):>14} {unit}")
    if args.trace:
        for name, (value, unit) in outcome.metrics.items():
            print(f"  {name:<36} {format_value(value):>14} {unit}")
    print(f"fingerprint {outcome.workload} {outcome.fingerprint}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"check {'ok' if outcome.correct else 'FAILED'}: "
          f"{outcome.failed} of {outcome.attempted} ops failed")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
