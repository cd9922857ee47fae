"""Ablation: spot count (design choice 5 of DESIGN.md).

Section 5.2: "40,000 spots per texture will result in very accurate
renderings.  Using less spots will result in less accurate renderings,
but can increase performance substantially."  Throughput from the
machine model; rendering quality measured as texture coverage (fraction
of pixels receiving spot evidence).
"""

import numpy as np

from repro.advection.particles import ParticleSet
from repro.core.config import BentConfig, SpotNoiseConfig
from repro.fields.analytic import random_smooth_field
from repro.machine.schedule import simulate_texture
from repro.machine.workload import SpotWorkload
from repro.machine.workstation import WorkstationConfig
from repro.parallel.runtime import DivideAndConquerRuntime

COUNTS = [40_000, 20_000, 10_000, 5_000]
FIELD = random_smooth_field(seed=15, n=65)


def model_rates():
    base = SpotWorkload.turbulence()
    return {
        n: simulate_texture(
            WorkstationConfig(8, 4), base.with_spots(n)
        ).textures_per_second
        for n in COUNTS
    }


def coverage(n_spots):
    # Scaled-down renderer run preserving the paper's spot density:
    # 40 000 spots on 512^2 = the same spots-per-pixel as 2500 on 128^2.
    cfg = SpotNoiseConfig(
        n_spots=max(n_spots // 16, 50),
        texture_size=128,
        spot_mode="bent",
        bent=BentConfig(n_along=6, n_across=3, length_cells=3.0, width_cells=0.8),
        seed=16,
    )
    ps = ParticleSet.uniform_random(cfg.n_spots, FIELD.grid.bounds, seed=16)
    with DivideAndConquerRuntime(cfg) as rt:
        tex, _ = rt.synthesize(FIELD, ps)
    return float((np.abs(tex) > 1e-9).mean())


def test_spot_count_report(benchmark, paper_report):
    rates = benchmark.pedantic(model_rates, rounds=1, iterations=1)
    lines = ["spot count, turbulence workload (8 procs, 4 pipes):",
             f"{'spots':>7s} {'tex/s':>7s} {'texture coverage':>17s}"]
    covers = {}
    for n in COUNTS:
        covers[n] = coverage(n)
        lines.append(f"{n:7d} {rates[n]:7.2f} {covers[n]:17.2%}")
    lines.append("fewer spots: faster but the texture no longer covers the field")
    paper_report("ablation_spots", "\n".join(lines))

    rate_list = [rates[n] for n in COUNTS]
    assert all(b > a for a, b in zip(rate_list, rate_list[1:]))
    assert rates[5_000] > 2.0 * rates[40_000]
    # Section 5.2, "fewer spots, less accurate": coverage falls with the
    # spot count, and 5 000 spots leave most of what 40 000 reach blank.
    # Coverage counts pixel centres inside a spot quad (exact scanline
    # coverage): about 40% at 40 000 spots and 7% at 5 000.
    cover_list = [covers[n] for n in COUNTS]
    assert all(a >= b for a, b in zip(cover_list, cover_list[1:]))
    assert covers[40_000] > 0.35
    assert covers[5_000] < 0.1
