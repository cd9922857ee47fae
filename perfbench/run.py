"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steer --seed 1 --seconds 10 --trace 0

Prints a human-readable summary, one ``perfbench-info`` JSON line with
raw (unnormalized) values, counts and digests, and, last, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
Scratch files (the DNS database per seed, disk tiers, spans) go to
``.perfbench_work/`` in the checkout.  Exits non-zero without a result
when the program under test is missing or the run cannot be trusted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, work_dir=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program under test at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src]

    from perfbench.harness import BenchmarkError
    from perfbench.runner import run

    try:
        result, info = run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            work_dir or os.path.join(ROOT, ".perfbench_work"),
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for key, metric in result["metrics"].items():
        print(f"{args.workload:>10} {key:<28} {metric['value']:>14.6g} {metric['unit']}")
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
