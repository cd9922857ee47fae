"""tools/bench_record.py: one BENCH_<pr>.json from perfbench runs."""

import json

import pytest

from tools import bench_record


def fake_run(workload, seed, seconds, trace, root=None):
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



SPEC = {
    "end_to_end": [
        {"name": "textures_per_s", "better": "higher", "bound": 0.2},
        {"name": "latency_ms_p50", "better": "lower", "bound": 0.25},
        {"name": "ok_ratio", "better": "higher", "bound": 0.01},
    ]
}


def record(workloads, probe=None):
    rows = {
        name: {"end_to_end": {m: {"median": med, "iqr": iqr} for m, (med, iqr) in metrics.items()}}
        for name, metrics in workloads.items()
    }
    if probe is not None:
        for row in rows.values():
            row["probe_ms"] = {"median": probe[0], "iqr": probe[1]}
    return {"workloads": rows}


OLD = record({
    "steer": {"textures_per_s": (100.0, 5.0), "latency_ms_p50": (10.0, 4.0), "ok_ratio": (1.0, 0.0)},
    "gone": {"textures_per_s": (50.0, 1.0)},
})


def test_compare_verdicts():
    new = record({"steer": {"textures_per_s": (70.0, 5.0), "latency_ms_p50": (12.0, 1.0), "ok_ratio": (1.0, 0.0)}})
    rows, notes, regressed = bench_record.compare(OLD, new, SPEC)
    verdicts = {(r[0], r[1]): r[-1] for r in rows}
    # 30% fewer textures/s is past the 20% bound; the old p50 spread
    # (40%) is wider than its 25% bound, so +20% there is unresolved.
    assert verdicts[("steer", "textures_per_s")] == "regressed"
    assert verdicts[("steer", "latency_ms_p50")] == "unresolved"
    assert verdicts[("steer", "ok_ratio")] == "ok"
    assert {verdicts[("gone", m["name"])] for m in SPEC["end_to_end"]} == {"missing"}
    assert regressed
    row = next(r for r in rows if r[:2] == ("steer", "textures_per_s"))
    assert row[2:5] == ("100", "70", "-30.0%")


def test_compare_gain_and_small_loss_are_ok():
    new = record({"steer": {"textures_per_s": (130.0, 5.0), "latency_ms_p50": (10.5, 1.0), "ok_ratio": (0.995, 0.0)}})
    rows, notes, regressed = bench_record.compare(OLD, new, SPEC)
    assert not regressed and not notes
    assert {r[-1] for r in rows if r[0] == "steer"} == {"ok", "unresolved"}


def test_compare_host_probe_outside_old_spread_is_unresolved():
    slow = {"textures_per_s": (70.0, 5.0), "ok_ratio": (1.0, 0.0)}
    old = record({"steer": {"textures_per_s": (100.0, 5.0), "ok_ratio": (1.0, 0.0)}}, probe=(5.0, 0.4))
    # The host probe moved 1.5 ms against an old probe IQR of 0.4 ms: the
    # records cannot tell a 30% loss from host drift.
    rows, notes, regressed = bench_record.compare(old, record({"steer": slow}, probe=(6.5, 0.4)), SPEC)
    assert not regressed
    assert {r[-1] for r in rows if r[1] != "latency_ms_p50"} == {"unresolved"}
    assert notes == ["steer: host probe 5 -> 6.5 ms, past the old IQR 0.4 ms; its rows are unresolved"]
    # Within the old probe spread the same loss is a regression.
    rows, notes, regressed = bench_record.compare(old, record({"steer": slow}, probe=(5.3, 0.4)), SPEC)
    assert regressed and not notes


def test_compare_exit_code(tmp_path, capsys):
    paths = []
    for name, tput in (("old", 100.0), ("same", 99.0), ("slow", 50.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(record({"steer": {"textures_per_s": (tput, 1.0)}})))
        paths.append(str(path))
    assert bench_record.main(["--compare", paths[0], paths[1]]) == 0
    assert bench_record.main(["--compare", paths[0], paths[2]]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "missing" in out


def test_parent_runs_alternate_back_to_back(tmp_path, monkeypatch):
    calls = []

    def run(workload, seed, seconds, trace, root=bench_record.ROOT):
        calls.append((workload, seed, trace, root))
        out = fake_run(workload, seed, seconds, trace)
        if root != bench_record.ROOT:
            for metric in out["result"]["metrics"].values():
                metric["value"] *= 10
        return out

    monkeypatch.setattr(bench_record, "run_once", run)
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    out = tmp_path / "BENCH_9.json"
    argv = ["--pr", "9", "--seeds", "1", "2", "3", "--parent", str(parent), "--out", str(out)]
    assert bench_record.main(argv) == 0
    bench = json.loads(out.read_text())
    assert sorted(bench["parent"]) == sorted(bench["workloads"])
    workload = sorted(bench["workloads"])[0]
    mine = [c for c in calls if c[0] == workload]
    # Each run here sits beside the same run of the parent, and the
    # pair's order alternates seed by seed, in both modes.
    pairs = [mine[i:i + 2] for i in range(0, len(mine), 2)]
    assert [(a[1:3], b[1:3]) for a, b in pairs] == [((s, t), (s, t)) for t in (0, 1) for s in (1, 2, 3)]
    firsts = [a[3] == bench_record.ROOT for a, _ in pairs]
    assert firsts == [True, False, True, True, False, True]
    assert {b[3] for a, b in pairs} | {a[3] for a, b in pairs} == {bench_record.ROOT, str(parent)}
    here = bench["workloads"][workload]["end_to_end"]["textures_per_s"]
    there = bench["parent"][workload]["end_to_end"]["textures_per_s"]
    assert here["values"] == [1.0, 2.0, 3.0] and there["values"] == [10.0, 20.0, 30.0]
    assert set(bench["parent"][workload]) == set(bench["workloads"][workload])


def test_parent_must_be_a_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "run_once", fake_run)
    with pytest.raises(SystemExit):
        bench_record.main(["--pr", "9", "--parent", str(tmp_path), "--out", str(tmp_path / "b.json")])


def with_parent(workloads, parent, probe=None, parent_probe=None):
    rec = record(workloads, probe)
    rec["parent"] = record(parent, parent_probe)["workloads"]
    return rec


def test_compare_parent_verdicts(tmp_path, capsys):
    rec = with_parent(
        {"steer": {"textures_per_s": (70.0, 5.0), "latency_ms_p50": (10.5, 1.0), "ok_ratio": (1.0, 0.0)}},
        {"steer": {"textures_per_s": (100.0, 5.0), "latency_ms_p50": (10.0, 4.0), "ok_ratio": (1.0, 0.0)}},
    )
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(rec))
    assert bench_record.main(["--compare-parent", str(path)]) == 1
    out = capsys.readouterr().out
    verdicts = {line.split()[1]: line.split()[-1] for line in out.splitlines() if line.startswith("steer")}
    # main() reads BENCHMARK.json, whose other metrics this record lacks.
    assert {m: verdicts[m] for m in ("textures_per_s", "latency_ms_p50", "ok_ratio")} == {
        "textures_per_s": "regressed", "latency_ms_p50": "unresolved", "ok_ratio": "ok"}
    assert verdicts["setup_s"] == "missing"
    assert "same session" in out.splitlines()[0]


def test_compare_parent_ignores_the_host_probe_rule(tmp_path):
    # Between sessions a probe that moved this far leaves the rows
    # unresolved; against a parent run beside it, the loss is judged.
    slow = {"steer": {"textures_per_s": (70.0, 5.0)}}
    fast = {"steer": {"textures_per_s": (100.0, 5.0)}}
    rec = with_parent(slow, fast, probe=(6.5, 0.4), parent_probe=(5.0, 0.4))
    rows, notes, regressed = bench_record.compare(
        {"workloads": rec["parent"]}, rec, SPEC, host_rule=False)
    assert regressed and not notes
    rows, notes, regressed = bench_record.compare({"workloads": rec["parent"]}, rec, SPEC)
    assert not regressed and notes
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(rec))
    assert bench_record.main(["--compare-parent", str(path)]) == 1
    path.write_text(json.dumps(with_parent(fast, slow, probe=(6.5, 0.4), parent_probe=(5.0, 0.4))))
    assert bench_record.main(["--compare-parent", str(path)]) == 0


def test_compare_parent_needs_a_parent_block(tmp_path):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(record({"steer": {"textures_per_s": (100.0, 1.0)}})))
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--compare-parent", str(path)])
    assert exc.value.code == 2
