"""Record one point of the benchmark trajectory as ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr <n> --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` for every workload declared in
``BENCHMARK.json``, once per seed untraced (``--trace 0``, the
end-to-end metrics) and once traced (``--trace 1``, the per-layer
metrics), one run at a time, every run ``run_seconds`` long as
``BENCHMARK.json`` declares.  The file it writes holds the host, the
host probe of every run, the median, quartiles and IQR of each
end-to-end metric over the seeds, and the median of each per-layer
metric.  Every value is host-normalised by perfbench itself; the raw
probe medians are kept beside them so two records from different hosts
can be told apart.  Run it from any directory; it benchmarks the
checkout it lives in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """One ``perfbench/run.py`` run: its result object and info line."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    info = next(l for l in lines if l.startswith("perfbench-info "))
    return {"result": json.loads(lines[-1]), "info": json.loads(info[len("perfbench-info "):])}


def spread(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles(n=4)``) of *values*."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: List[Dict[str, object]], with_spread: bool) -> Dict[str, object]:
    """Per-metric summary over the seeds of one workload and one mode."""
    table = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        row = spread(values) if with_spread else {"median": statistics.median(values)}
        table[name] = {"unit": metric["unit"], **row, "values": values}
    return table


def record(workloads: List[str], seeds: List[int], seconds: float) -> Dict[str, object]:
    """``{workload: summary}``, every workload run over every seed in both modes."""
    out: Dict[str, object] = {}
    for workload in workloads:
        plain = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = [run_once(workload, seed, seconds, 1) for seed in seeds]
        probes = [r["info"]["probe_ms"] for r in plain + traced]
        out[workload] = {
            "all_correct": all(r["result"]["correct"] for r in plain + traced),
            "failed_ops": sum(r["result"]["failed"] for r in plain + traced),
            "probe_ms": {**spread(probes), "values": probes},
            "end_to_end": summarise(plain, with_spread=True),
            "per_layer": summarise(traced, with_spread=False),
        }
        row = out[workload]
        print(f"{workload}: correct={row['all_correct']} probe {row['probe_ms']['median']:.3f} ms "
              f"textures_per_s {row['end_to_end']['textures_per_s']['median']:.4g}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json in the checkout)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = record(workloads, args.seeds, seconds)
    probes = [v for row in results.values() for v in row["probe_ms"]["values"]]
    bench = {
        "pr": args.pr,
        "command": spec["command"],
        "seeds": args.seeds,
        "seconds": seconds,
        "host": {
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "probe_ms": spread(probes),
        },
        "workloads": results,
    }
    path = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
