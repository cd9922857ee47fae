"""Honest engineering data: the Python renderer's own throughput.

The paper's numbers come from 1997 graphics hardware; this bench records
what *this* implementation achieves on *this* host for scaled versions of
both workloads, so users know the real cost of a texture before asking
the machine model about hypothetical hardware.

Two rasterisers are timed per workload, both in a serial runtime:

* ``exact/batched`` — the production scanline kernel
  (:mod:`repro.raster.batched`): exact coverage, fully vectorised.
* ``exact/reference`` — the per-quad oracle loop
  (:func:`repro.raster.rasterize.rasterize_quads_exact`, swapped in for
  the batched kernel where the graphics pipe draws), timed on a tenth of
  the spots (it is orders of magnitude slower); its full-workload
  throughput is extrapolated linearly and marked as such.

The batched kernel renders the *same pixels* as the reference row, so
the reference-vs-batched ratio is the speedup of the rasterisation
subsystem itself.
"""

import time
from contextlib import nullcontext
from unittest import mock

from repro.advection.particles import ParticleSet
from repro.core.config import BentConfig, SpotNoiseConfig
from repro.fields.analytic import random_smooth_field
from repro.glsim import pipe
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.raster.rasterize import rasterize_quads_exact

FIELD_ATM = random_smooth_field(seed=21, n=53)
FIELD_DNS = random_smooth_field(seed=22, n=139)

# Scaled workloads: paper spot density on a quarter-resolution texture,
# reduced bent meshes (the full 32x17 mesh is a hardware-scale workload).
CONFIGS = {
    "atmospheric/4": (
        FIELD_ATM,
        SpotNoiseConfig(
            n_spots=2500,
            texture_size=128,
            spot_mode="bent",
            bent=BentConfig(n_along=8, n_across=5, length_cells=4.0, width_cells=1.2),
            seed=23,
        ),
    ),
    "turbulence/16": (
        FIELD_DNS,
        SpotNoiseConfig(
            n_spots=2500,
            texture_size=128,
            spot_mode="bent",
            bent=BentConfig(n_along=6, n_across=3, length_cells=3.0, width_cells=0.8),
            seed=23,
        ),
    ),
}

#: Spot-count divisor for the per-quad reference row (it is ~2 orders of
#: magnitude slower than the batched kernel on the same geometry).
_REFERENCE_SCALE = 10

#: The kernel each renderer row draws with.  The configs are serial, so
#: the swap reaches every group.
RENDERERS = {
    "exact/batched": nullcontext,
    "exact/reference": lambda: mock.patch.object(
        pipe, "rasterize_quads_batched", rasterize_quads_exact
    ),
}


def render_once(name, renderer="exact/batched"):
    field, cfg = CONFIGS[name]
    if renderer == "exact/reference":
        cfg = cfg.with_overrides(n_spots=max(1, cfg.n_spots // _REFERENCE_SCALE))
    ps = ParticleSet.uniform_random(cfg.n_spots, field.grid.bounds, seed=cfg.seed)
    with RENDERERS[renderer](), DivideAndConquerRuntime(cfg) as rt:
        texture, report = rt.synthesize(field, ps)
    return texture, report


def test_real_throughput_report(benchmark, paper_report):
    texture, _ = benchmark.pedantic(render_once, args=("atmospheric/4",), rounds=2, iterations=1)
    assert texture.shape == (128, 128)

    lines = ["this implementation, this host (Python + numpy, 1 CPU; "
             "batched best of 3, reference 1 run):",
             f"{'workload':>16s} {'renderer':>16s} {'spots':>6s} {'quads':>8s} "
             f"{'seconds':>8s} {'tex/s':>7s}"]
    rates = {}
    for name in CONFIGS:
        for renderer in RENDERERS:
            reps = 1 if renderer == "exact/reference" else 3
            dt = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                _, report = render_once(name, renderer)
                dt = min(dt, time.perf_counter() - t0)
            rates[(name, renderer)] = 1.0 / dt
            note = ""
            if renderer == "exact/reference":
                note = (f"  (spots/{_REFERENCE_SCALE}; ~{1.0 / (dt * _REFERENCE_SCALE):.2f}"
                        " tex/s at full spot count)")
            lines.append(
                f"{name:>16s} {renderer:>16s} {report.total_spots_rendered:6d} "
                f"{report.counters.quads_drawn:8d} {dt:8.3f} {1.0 / dt:7.2f}{note}"
            )
    for name in CONFIGS:
        batched = rates[(name, "exact/batched")]
        reference = rates[(name, "exact/reference")] / _REFERENCE_SCALE
        lines.append(
            f"{name}: batched scanline = {batched / reference:.0f}x the per-quad "
            "reference (same pixels)"
        )
    lines.append(
        "the 1997 Onyx2 did the full-size versions at 5.6 / 3.5 tex/s in "
        "hardware; the calibrated model (tables 1-2) stands in for it"
    )
    paper_report("real_throughput", "\n".join(lines))
