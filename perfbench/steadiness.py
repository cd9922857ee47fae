"""Run-to-run spread of the benchmark, the evidence behind its bounds.

    python3 perfbench/steadiness.py --workloads steer browse --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints for every end-to-end metric the median and the interquartile
range as a share of the median (``statistics.quantiles(n=4)``), both
normalized and raw, beside the host probe.  Runs of a repeated seed must
report identical exact counts and trace digests.  ``--json`` writes the
table for the steadiness record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values: List[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(l for l in lines if l.startswith("perfbench-info "))[15:])
    return {"result": json.loads(lines[-1]), "info": info}


def summarise(workload: str, runs: List[Dict[str, object]]) -> Dict[str, object]:
    metrics = runs[0]["result"]["metrics"]
    table = {}
    for name in metrics:
        norm = [r["result"]["metrics"][name]["value"] for r in runs]
        row = {"median": statistics.median(norm), "iqr_share": spread(norm), "values": norm}
        if name in runs[0]["info"]["raw"]:
            raw = [r["info"]["raw"][name] for r in runs]
            row.update(raw_median=statistics.median(raw), raw_iqr_share=spread(raw), raw_values=raw)
        table[name] = row
    probes = [r["info"]["probe_ms"] for r in runs]
    by_seed: Dict[int, List[Dict[str, object]]] = {}
    for r in runs:
        by_seed.setdefault(r["info"]["seed"], []).append(r["info"])
    repeat_ok = all(
        all(i["counts"] == infos[0]["counts"] and i["trace_digest"] == infos[0]["trace_digest"]
            for i in infos)
        for infos in by_seed.values()
    )
    return {
        "workload": workload,
        "runs": len(runs),
        "seeds": [r["info"]["seed"] for r in runs],
        "all_correct": all(r["result"]["correct"] for r in runs),
        "repeat_counts_identical": repeat_ok,
        "probe_ms": {
            "median": statistics.median(probes), "iqr_share": spread(probes), "values": probes,
        },
        "metrics": table,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args(argv)
    summaries = []
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        s = summarise(workload, runs)
        summaries.append(s)
        print(f"{workload}: {s['runs']} runs, correct={s['all_correct']}, "
              f"repeat counts identical={s['repeat_counts_identical']}, "
              f"probe {s['probe_ms']['median']:.3f} ms (IQR {s['probe_ms']['iqr_share']:.1%})")
        for name, row in s["metrics"].items():
            raw = (f"  raw {row['raw_median']:.6g} IQR {row['raw_iqr_share']:.1%}"
                   if "raw_median" in row else "")
            print(f"  {name:<24} {row['median']:>12.6g} IQR {row['iqr_share']:>6.1%}{raw}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summaries, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
