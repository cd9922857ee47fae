"""The `cluster-bench` / `serve-node` CLI entry points.

`cluster-bench` is the CI smoke guard for the sharded tier: a small
fleet replaying the default scrub trace must beat the no-share baseline
(every node caching alone) on total renders, floor-guarded for traces
already at the exactly-once floor.  `serve-node` is proven end-to-end:
a real subprocess, a real socket, bytes compared against a fresh
in-process render.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import analytic_source
from repro.cluster.peer import PeerClient
from repro.core.config import SpotNoiseConfig
from repro.service import FrameRenderer

SMALL = [
    "--requests", "60", "--frames", "12",
    "--spots", "60", "--size", "32", "--grid", "21",
]


def test_two_node_fleet_beats_no_share_baseline(capsys):
    rc = main(["cluster-bench", "--nodes", "2", *SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "renders saved vs no-share" in out
    assert "FAIL" not in out
    assert "bit-identical to fresh renders (3 sampled): yes" in out


def test_single_node_fleet_hits_the_floor_guard(capsys):
    # With one node the no-share baseline *is* the exactly-once floor;
    # the guard must recognise there is nothing to beat, not fail.
    rc = main(["cluster-bench", "--nodes", "1", *SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nothing to beat (guard passes)" in out


def test_bench_counts_match_the_trace_arithmetic(capsys):
    rc = main(["cluster-bench", "--nodes", "3", *SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    # Exactly-once fleet-wide: fleet renders == distinct frames.
    for line in out.splitlines():
        if line.startswith("fleet renders:"):
            fleet_renders = int(line.split()[2])
        elif line.startswith("distinct frames:"):
            distinct = int(line.split()[2])
    assert fleet_renders == distinct


@pytest.mark.parametrize("argv", [
    ["serve-node", "--peer", "garbage", "--duration", "0.1"],
    ["serve-node", "--peer", "id-but-no-address=", "--duration", "0.1"],
    ["serve-node", "--peer", "a=127.0.0.1:99999", "--duration", "0.1"],
    ["serve-node", "--peer", "a=127.0.0.1:65536", "--duration", "0.1"],
    ["serve-node", "--peer", "a=127.0.0.1:0", "--duration", "0.1"],
    ["serve-node", "--peer", "a=127.0.0.1:-1", "--duration", "0.1"],
])
def test_serve_node_rejects_malformed_peer_specs(argv, capsys):
    assert main(argv) == 2
    assert "bad --peer" in capsys.readouterr().err


def test_serve_node_serves_real_sockets(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve-node",
            "--node-id", "solo", "--duration", "60",
            "--spots", "60", "--size", "32", "--grid", "21",
            "--disk", str(tmp_path / "cache"),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        host, port = line.split("listening on ")[1].split()[0].split(":")
        client = PeerClient((host, int(port)), timeout=30.0)
        try:
            texture, header = client.request_texture(2)
            assert header["node"] == "solo"
            # Repeat traffic is a cache hit, not a re-render.
            again, _ = client.request_texture(2)
        finally:
            client.close()
        # Bit-identical to a fresh one-shot render of the same frame
        # under the CLI's default config.
        config = SpotNoiseConfig(
            n_spots=60, texture_size=32, spot_mode="standard",
            seed=0, backend="serial",
        )
        source = analytic_source(seed=0, grid=21)
        renderer = FrameRenderer(config)
        try:
            fresh = renderer.render(source(2))
        finally:
            renderer.close()
        assert np.array_equal(texture, fresh)
        assert np.array_equal(again, fresh)
    finally:
        proc.terminate()
        proc.wait(timeout=30)
