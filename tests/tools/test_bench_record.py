"""tools/bench_record.py: one BENCH_<pr>.json from perfbench runs."""

import json

from tools import bench_record


def fake_run(workload, seed, seconds, trace):
    names = ("latency_ms_p50", "textures_per_s") if trace == 0 else ("core.render_ms",)
    return {
        "result": {
            "correct": True,
            "failed": 0,
            "metrics": {n: {"value": float(seed * (1 + trace)), "unit": "u"} for n in names},
        },
        "info": {"probe_ms": 4.0 + seed / 10},
    }


def test_records_every_declared_workload(tmp_path, monkeypatch):
    calls = []

    def run(*args):
        calls.append(args)
        return fake_run(*args)

    monkeypatch.setattr(bench_record, "run_once", run)
    out = tmp_path / "BENCH_9.json"
    assert bench_record.main(["--pr", "9", "--seeds", "1", "2", "3", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    with open(bench_record.os.path.join(bench_record.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [w["name"] for w in spec["workloads"]]
    assert sorted(bench["workloads"]) == sorted(declared)
    # Both modes run at the declared length.
    assert sorted({(c[2], c[3]) for c in calls}) == [(spec["run_seconds"], 0), (spec["run_seconds"], 1)]
    assert len(calls) == len(declared) * 3 * 2
    row = bench["workloads"][declared[0]]
    assert row["all_correct"] and row["failed_ops"] == 0
    tput = row["end_to_end"]["textures_per_s"]
    assert tput["median"] == 2.0 and tput["values"] == [1.0, 2.0, 3.0]
    assert tput["iqr"] == tput["q3"] - tput["q1"] > 0
    assert row["per_layer"]["core.render_ms"]["median"] == 4.0
    assert "iqr" not in row["per_layer"]["core.render_ms"]
    assert len(row["probe_ms"]["values"]) == 6
    assert bench["host"]["probe_ms"]["median"] > 4.0

