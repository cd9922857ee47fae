"""Tests for the command-line interface (repro.cli)."""

import os

import pytest

from repro.cli import build_parser, main


class TestTables:
    def test_prints_both_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "nP\\nG" in out


class TestPredict:
    def test_default_full_machine(self, capsys):
        assert main(["predict"]) == 0
        out = capsys.readouterr().out
        assert "8 processors, 4 graphics pipes" in out
        assert "textures/s" in out
        assert "meets the 5 Hz steering budget" in out

    def test_single_cpu_misses_budget(self, capsys):
        assert main(["predict", "-p", "1", "-g", "1", "-w", "turbulence"]) == 0
        out = capsys.readouterr().out
        assert "MISSES" in out

    def test_spot_override(self, capsys):
        assert main(["predict", "--spots", "1000", "-w", "turbulence"]) == 0
        out = capsys.readouterr().out
        assert "1000 spots" in out

    def test_tiled_flag_accepted(self, capsys):
        assert main(["predict", "--tiled"]) == 0

    def test_infeasible_machine_raises(self):
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            main(["predict", "-p", "1", "-g", "4"])


class TestRender:
    def test_writes_pgm(self, tmp_path, capsys):
        out_path = str(tmp_path / "tex.pgm")
        code = main([
            "render", "--field", "shear", "--size", "64", "--spots", "500",
            "--output", out_path,
        ])
        assert code == 0
        assert os.path.exists(out_path)
        from oracles import read_pgm

        img = read_pgm(out_path)
        assert img.shape == (64, 64)

    def test_post_filter_option(self, tmp_path):
        out_path = str(tmp_path / "hp.pgm")
        assert main([
            "render", "--size", "64", "--spots", "300",
            "--post-filter", "highpass", "--output", out_path,
        ]) == 0
        assert os.path.exists(out_path)

    def test_unknown_field_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "--field", "tornado"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAnimBench:
    def test_small_scrub_bench_runs_and_reports(self, capsys):
        code = main([
            "anim-bench", "--trace", "scrub", "--requests", "24", "--frames", "8",
            "--spots", "120", "--size", "32", "--grid", "16", "--clients", "2",
            "--baseline-requests", "4", "--verify-sample", "1",
            "--checkpoint-every", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "streamed path:" in out
        assert "per-frame path:" in out
        assert "speedup:" in out
        assert "bit-identical to one-shot renders: yes" in out

    def test_replay_trace_renders_each_frame_once(self, capsys):
        code = main([
            "anim-bench", "--trace", "replay", "--requests", "16", "--frames", "8",
            "--spots", "120", "--size", "32", "--grid", "16", "--clients", "1",
            "--baseline-requests", "2", "--verify-sample", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "8 incremental renders for 8 distinct frames" in out

    def test_rejects_unknown_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["anim-bench", "--trace", "bogus"])


class TestPlanBench:
    def test_small_plan_bench_runs_and_reports(self, capsys):
        code = main([
            "plan-bench", "--spots", "200", "--size", "48", "--grid", "64",
            "--frames", "3", "--groups", "2", "--host-workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan: backend=" in out
        assert "serial backend (in-thread):" in out
        assert "sharedmem backend (zero-copy):" in out
        assert "bit-identical to serial: yes" in out


class TestDeltaBench:
    def test_small_delta_bench_runs_and_reports(self, capsys):
        # A 16-frame trace re-ships too many keyframes to reach the
        # default 1/3 byte budget, so the budget is passed explicitly.
        code = main([
            "delta-bench", "--requests", "48", "--frames", "16",
            "--spots", "150", "--size", "48", "--grid", "24", "--budget", "0.6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "delta transport:" in out
        assert "ratio:" in out
        assert "decoded frames bit-identical: yes" in out

    def test_budget_overrun_fails_the_run(self, capsys):
        code = main([
            "delta-bench", "--requests", "48", "--frames", "16",
            "--spots", "150", "--size", "48", "--grid", "24", "--budget", "0.1",
        ])
        assert code == 1
        assert "decoded frames bit-identical: yes" in capsys.readouterr().out


class TestBackendChoices:
    @pytest.mark.parametrize("command", ["serve-node", "cluster-bench"])
    def test_process_backend_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--backend", "process"])


class TestServeBench:
    def test_small_zipf_bench_runs_and_reports(self, capsys):
        code = main([
            "serve-bench", "--trace", "zipf", "--requests", "24",
            "--frames", "4", "--clients", "2", "--workers", "1",
            "--spots", "60", "--size", "32", "--grid", "17",
            "--baseline-requests", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hit" in out and "coalesce" in out
        assert "bit-identical to fresh renders: yes" in out
        assert "speedup" in out
        assert "renders for 4 distinct frames" in out or "distinct frames" in out

    def test_disk_tier_and_scrub_trace(self, tmp_path, capsys):
        code = main([
            "serve-bench", "--trace", "scrub", "--requests", "12",
            "--frames", "3", "--clients", "1", "--workers", "1",
            "--spots", "60", "--size", "32", "--grid", "17",
            "--baseline-requests", "4", "--disk", str(tmp_path / "cache"),
            "--no-verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical" not in out
        # The disk tier is content-addressed npz files.
        cached = [p for p in (tmp_path / "cache").iterdir() if p.suffix == ".npz"]
        assert cached


class TestServeBenchStore:
    """``--store``: frames come from a ChunkedFieldStore, not analytic fields."""

    @staticmethod
    def build_store(tmp_path):
        from repro.apps.dns.store import ChunkedFieldStore
        from repro.fields.analytic import random_smooth_field
        from repro.fields.grid import RectilinearGrid
        from repro.fields.vectorfield import VectorField2D

        first = random_smooth_field(seed=5, n=17)
        grid = RectilinearGrid(first.grid.x_coords(), first.grid.y_coords())
        path = tmp_path / "db"
        store = ChunkedFieldStore.create(path, grid, frames_per_chunk=2)
        for t in range(4):
            field = random_smooth_field(seed=5 + t, n=17)
            store.append(VectorField2D(grid, field.data), time=0.1 * t)
        store.flush()
        return str(path)

    def test_serves_the_store(self, tmp_path, capsys):
        store = self.build_store(tmp_path)
        code = main([
            "serve-bench", "--store", store, "--frames", "4", "--requests", "12",
            "--clients", "1", "--workers", "1", "--spots", "60", "--size", "32",
            "--baseline-requests", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert f"source: store {store} (4 frames)" in out
        assert "bit-identical to fresh renders: yes" in out


class TestAnimBenchStore:
    def test_streams_the_store(self, tmp_path, capsys):
        store = TestServeBenchStore.build_store(tmp_path)
        code = main([
            "anim-bench", "--store", store, "--frames", "4", "--requests", "12",
            "--clients", "1", "--spots", "60", "--size", "32",
            "--baseline-requests", "2", "--verify-sample", "2",
            "--checkpoint-every", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert f"source: store {store} (4 frames)" in out
        assert "bit-identical to one-shot renders: yes" in out
