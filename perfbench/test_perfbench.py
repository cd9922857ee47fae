"""Fast tests of the benchmark itself, at tiny workload sizes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import harness, run as run_cli, runner  # noqa: E402
from perfbench.workloads import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import browse, dashboard, fleet  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload and lift the sample-count guards."""
    monkeypatch.setattr(harness, "MIN_GAP_POINTS", 0.0)
    monkeypatch.setattr(runner, "check_tail", lambda n, p: None)
    monkeypatch.setattr(runner.Run, "pass_count", lambda self: 2 if self.traced else 1)
    monkeypatch.setattr(runner, "SETUP_CYCLES", 2)
    monkeypatch.setattr(fleet, "N_OPS", 24)
    monkeypatch.setattr(fleet, "N_DISTINCT", 8)
    monkeypatch.setattr(dashboard, "N_OPS", 24)
    monkeypatch.setattr(dashboard, "N_HISTORY", 20)
    monkeypatch.setattr(browse, "N_OPS", 24)
    monkeypatch.setattr(browse, "N_FRAMES", 12)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metric_catalogue():
    spec = _declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    from perfbench.workloads import registry

    assert [w["name"] for w in spec["workloads"]] == list(registry())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace, catalogue", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_metric_is_printed_with_name_and_unit(tiny, tmp_path, capsys, trace, catalogue):
    argv = ["--workload", "fleet", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run_cli.main(argv, work_dir=str(tmp_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(catalogue)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    for name, unit in catalogue:
        assert any(name in line and line.rstrip().endswith(unit) for line in lines[:-2])


@pytest.mark.parametrize("workload", ["browse", "dashboard"])
def test_runs_are_deterministic_per_seed(tiny, tmp_path, workload):
    first = runner.run(workload, 5, 0.0, False, str(tmp_path))[1]
    again = runner.run(workload, 5, 0.0, False, str(tmp_path))[1]
    other = runner.run(workload, 6, 0.0, False, str(tmp_path))[1]
    assert first["counts"] == again["counts"]
    assert first["trace_digest"] == again["trace_digest"]
    assert first["checked"] > 0 and not first["mismatches"]
    assert other["trace_digest"] != first["trace_digest"]


def test_normalization_arithmetic():
    # A host twice as slow as the reference: durations halve.
    assert harness.normalize_times([10.0], [6.4], ref_ms=3.2)[0] == pytest.approx(5.0)
    # Each operation is scaled by the probes nearest to it in time: the
    # same work measured in a fast and a slow stretch of one run
    # normalizes to the same duration.
    probe = harness.HostProbe(interval_s=0.0)
    probe.samples_ms, probe.times = [2.0, 2.0, 8.0, 8.0], [0.0, 1.0, 10.0, 11.0]
    local = probe.local_ms([0.5, 10.5], k=2)
    assert list(local) == [2.0, 8.0]
    assert list(harness.normalize_times([0.01, 0.04], local, ref_ms=4.0)) == pytest.approx(
        [0.02, 0.02]
    )
    fresh = harness.HostProbe(interval_s=0.0)
    for _ in range(3):
        assert fresh.measure() > 0.0
    assert fresh.median_ms() == sorted(fresh.samples_ms)[1]


def test_placement_guard_fires_on_a_bimodal_sample():
    # 48 fast hits then 52 slow misses: the median sits on the cliff.
    bimodal = {"hit": [0.001] * 48, "miss": [0.010] * 52}
    assert harness.class_boundaries(bimodal) == [48.0]
    with pytest.raises(harness.BenchmarkError, match="p50 is 2.00 points"):
        harness.check_placement(bimodal, (50.0, 99.0), min_gap=3.0)
    safe = {"hit": [0.001] * 70, "miss": [0.010] * 30}
    assert harness.check_placement(safe, (50.0, 90.0), min_gap=3.0) == 20.0
    assert harness.check_placement({"render": [0.08] * 10}, (50.0, 90.0)) is None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail_op_range(90.0) == (100, 999)
    assert harness.tail_op_range(99.0) == (1000, 9999)
    assert harness.tail_op_range(99.9)[0] == 10000
    harness.check_tail(1000, 99.0)
    for n in (999, 10000):
        with pytest.raises(harness.BenchmarkError):
            harness.check_tail(n, 99.0)


def test_self_time_subtracts_children():
    tracer = harness.Tracer()
    with tracer.span("op"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    op, c1, c2 = tracer.spans
    assert c1.parent == 0 and c2.parent == 0 and op.parent is None
    self_op = tracer.self_times()[0]
    assert self_op == pytest.approx(op.duration - c1.duration - c2.duration)
    assert len(tracer.self_times_by_name()["child"]) == 2


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
