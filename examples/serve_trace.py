#!/usr/bin/env python
"""Serving textures from a DNS database under a Zipf request trace.

The browser example plays frames one by one; this one serves them the
way a deployment would: a small turbulent-wake database is computed and
stored, then a ``TextureService`` replays a Zipf-distributed trace — a
few hot frames dominating, the access pattern dashboards generate — with
four concurrent clients.  Identical requests hit the cache, concurrent
duplicates coalesce onto one in-flight render, and the run ends with the
serving report (hit rate, coalesce rate, latency percentiles) next to
the honest no-cache baseline.  The measurement is
``repro.benches.serve_bench``, the body behind ``repro.cli serve-bench``.

Run:  python examples/serve_trace.py
Writes the database to ``examples/out_serve_db/`` and the disk cache
tier to ``examples/out_serve_cache/``.
"""

import os
import shutil

from repro import SpotNoiseConfig
from repro.apps.dns import ChunkedFieldStore, DNSConfig, DNSSolver
from repro.fields.grid import RectilinearGrid
from repro.benches import serve_bench
from repro.service import zipf_trace

HERE = os.path.dirname(os.path.abspath(__file__))
DB_DIR = os.path.join(HERE, "out_serve_db")
CACHE_DIR = os.path.join(HERE, "out_serve_cache")


def build_database(n_frames: int = 24) -> ChunkedFieldStore:
    """A reduced wake database (same substrate as the browser example)."""
    print("computing the DNS database (reduced grid, Re=150)...")
    solver = DNSSolver(DNSConfig(nx=70, ny=52, reynolds=150))
    solver.advance_to(6.0)  # spin-up past shedding onset

    if os.path.exists(DB_DIR):
        shutil.rmtree(DB_DIR)
    grid = RectilinearGrid(solver.grid.x_coords(), solver.grid.y_coords())
    store = ChunkedFieldStore.create(DB_DIR, grid, frames_per_chunk=8)
    for _ in range(n_frames):
        solver.advance_to(solver.time + 0.15)
        store.append(solver.field(), time=solver.time)
    store.flush()
    print(f"  {len(store)} slices, {store.nbytes_on_disk() / 1e6:.1f} MB on disk")
    return store


def main() -> None:
    store = build_database()
    config = SpotNoiseConfig(n_spots=2000, texture_size=128, seed=7)

    trace = zipf_trace(n_requests=200, n_frames=len(store), exponent=1.1, seed=1)
    distinct = len(set(trace))
    print(f"replaying a Zipf trace: 200 requests, {distinct} distinct frames, "
          "4 concurrent clients")

    if os.path.exists(CACHE_DIR):
        shutil.rmtree(CACHE_DIR)
    result = serve_bench(
        store.read, config, trace, n_workers=2, n_clients=4,
        baseline_requests=40, verify=False, disk_dir=CACHE_DIR,
    )
    print()
    print(result.report)

    print()
    print(f"cached:   {result.served.throughput_rps:8.1f} requests/s "
          f"({result.served.renders} renders for {distinct} distinct frames)")
    print(f"no cache: {result.baseline.throughput_rps:8.1f} requests/s "
          f"(first {result.baseline.n_requests} requests, every one rendered)")
    print(f"speedup:  {result.speedup:.1f}x")
    print(f"disk tier: {len(os.listdir(CACHE_DIR))} entries in {CACHE_DIR}/ — "
          "a restarted service starts warm")


if __name__ == "__main__":
    main()
