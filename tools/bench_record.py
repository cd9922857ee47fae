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

    python3 tools/bench_record.py --compare BENCH_22.json BENCH_23.json

reads two records, runs nothing, and prints the old median, new median
and relative change of every end-to-end metric on every workload, with
a verdict from the metric's ``better`` and ``bound`` in
``BENCHMARK.json``: ``regressed`` when the new median is worse by more
than the bound, ``unresolved`` when the old record's IQR exceeds the
bound or the workload's host probe moved past the old record's probe
IQR (either spread cannot tell such a change from noise), ``missing``
when either record lacks the row, ``ok`` otherwise.  It exits 1 only
when a row regressed.

    python3 tools/bench_record.py --pr <n> --parent ../parent-checkout
    python3 tools/bench_record.py --compare-parent BENCH_26.json

``--parent`` takes a second checkout, of the parent commit, and runs it
in the same session: every run of this checkout is paired with the same
run there, back to back, the pair's order alternating from one seed to
the next.  The parent's summary goes under a top-level ``"parent"`` key
shaped like ``"workloads"``.  ``--compare-parent`` judges such a record
against its own parent block with the same verdicts, but without the
host-probe rule: both sides shared a host, run by run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: float, trace: int, root: str = ROOT) -> Dict[str, object]:
    """One ``perfbench/run.py`` run in the checkout *root*: its result object and info line."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
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


def summarise_workload(plain: List[Dict[str, object]], traced: List[Dict[str, object]]) -> Dict[str, object]:
    """One workload's summary from its untraced and traced runs."""
    probes = [r["info"]["probe_ms"] for r in plain + traced]
    return {
        "all_correct": all(r["result"]["correct"] for r in plain + traced),
        "failed_ops": sum(r["result"]["failed"] for r in plain + traced),
        "probe_ms": {**spread(probes), "values": probes},
        "end_to_end": summarise(plain, with_spread=True),
        "per_layer": summarise(traced, with_spread=False),
    }


def record(
    workloads: List[str], seeds: List[int], seconds: float, parent: Optional[str] = None
) -> Tuple[Dict[str, object], Optional[Dict[str, object]]]:
    """``({workload: summary}, parent's or None)``, every workload over every seed in both modes.

    With a *parent* checkout, each run here and the same run there go
    back to back, and which of the two goes first alternates.
    """
    roots = [ROOT] if parent is None else [ROOT, parent]
    out: Dict[str, Dict[str, object]] = {root: {} for root in roots}
    for workload in workloads:
        runs: Dict[Tuple[str, int], List[Dict[str, object]]] = {}
        for trace in (0, 1):
            for i, seed in enumerate(seeds):
                for root in roots if i % 2 == 0 else roots[::-1]:
                    runs.setdefault((root, trace), []).append(run_once(workload, seed, seconds, trace, root))
        for root in roots:
            row = out[root][workload] = summarise_workload(runs[root, 0], runs[root, 1])
            side = "" if root == ROOT else " (parent)"
            print(f"{workload}{side}: correct={row['all_correct']} probe {row['probe_ms']['median']:.3f} ms "
                  f"textures_per_s {row['end_to_end']['textures_per_s']['median']:.4g}", flush=True)
    return out[ROOT], out.get(parent)


def relative_change(old: float, new: float) -> float:
    """``(new - old) / |old|``; a change from zero is infinite."""
    if old == 0:
        return 0.0 if new == old else float("inf") if new > old else float("-inf")
    return (new - old) / abs(old)


def verdict(
    old: Optional[dict], new: Optional[dict], better: str, bound: float, host_moved: bool
) -> Tuple[str, float]:
    """``(verdict, relative change)`` of one end-to-end metric between two records."""
    if old is None or new is None:
        return "missing", float("nan")
    change = relative_change(old["median"], new["median"])
    if host_moved:
        return "unresolved", change
    worse = -change if better == "higher" else change
    if worse > bound:
        return "regressed", change
    if relative_change(old["median"], old["median"] + old["iqr"]) > bound:
        return "unresolved", change
    return "ok", change


def host_move(old_row: dict, new_row: dict) -> Optional[str]:
    """Why a workload's host probe moved past the old record's probe IQR, or ``None``.

    Values are host-normalised by the probe, but a host that moved past
    its own run-to-run spread can move the serving workloads by more
    than their bounds (identical code recorded in two sessions read up
    to 67% apart), so such a workload's rows are ``unresolved``.
    """
    a, b = old_row.get("probe_ms"), new_row.get("probe_ms")
    if not (a and b) or abs(b["median"] - a["median"]) <= a["iqr"]:
        return None
    return f"host probe {a['median']:.3g} -> {b['median']:.3g} ms, past the old IQR {a['iqr']:.3g} ms"


def compare(
    old: dict, new: dict, spec: dict, host_rule: bool = True
) -> Tuple[List[Tuple[str, ...]], List[str], bool]:
    """Rows ``(workload, metric, old, new, change, verdict)``, host notes, and whether any regressed.

    *host_rule* off drops the host-probe rule, for a parent measured in
    the same session as the record.
    """
    rows, notes = [], []
    for workload in sorted(set(old["workloads"]) | set(new["workloads"])):
        before = old["workloads"].get(workload, {})
        after = new["workloads"].get(workload, {})
        moved = host_move(before, after) if host_rule else None
        if moved:
            notes.append(f"{workload}: {moved}; its rows are unresolved")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = before.get("end_to_end", {}).get(name), after.get("end_to_end", {}).get(name)
            label, change = verdict(a, b, metric["better"], metric["bound"], moved is not None)
            rows.append((
                workload, name,
                f"{a['median']:.4g}" if a else "-", f"{b['median']:.4g}" if b else "-",
                f"{change:+.1%}" if a and b else "-", label,
            ))
    return rows, notes, any(r[-1] == "regressed" for r in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pr", type=int, help="names the output BENCH_<pr>.json")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two records; run nothing")
    mode.add_argument("--compare-parent", metavar="RECORD",
                      help="judge a record against its own parent block; run nothing")
    parser.add_argument("--parent", help="a checkout of the parent commit, recorded alongside (with --pr)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json in the checkout)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.compare or args.compare_parent:
        records = []
        for path in args.compare or [args.compare_parent]:
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        if args.compare:
            title = f"{args.compare[0]} -> {args.compare[1]}"
            rows, notes, regressed = compare(records[0], records[1], spec)
        elif "parent" not in records[0]:
            parser.error(f"{args.compare_parent} holds no parent block")
        else:
            title = f"{args.compare_parent}: parent -> this change, same session"
            rows, notes, regressed = compare(
                {"workloads": records[0]["parent"]}, records[0], spec, host_rule=False)
        header = ("workload", "metric", "old", "new", "change", "verdict")
        widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
        print(title)
        for row in [header] + rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        for note in notes:
            print(note)
        return 1 if regressed else 0
    if args.parent and not os.path.isfile(os.path.join(args.parent, "perfbench", "run.py")):
        parser.error(f"--parent {args.parent} is not a checkout with perfbench/run.py")
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results, parent = record(workloads, args.seeds, seconds, args.parent)
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
    if parent is not None:
        bench["parent"] = parent
    path = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
