"""Figure 5: the divide-and-conquer pipeline, executed for real.

The figure's claim is structural: partition particles -> per-group
advect+generate on its own pipe -> gather and blend.  This bench runs
that decomposition with the real execution backends, asserts the gathered
texture is identical to the sequential one (the correctness property that
makes the decomposition legal), and times serial vs shared-memory
process execution of the same work.
"""

import numpy as np
import pytest

from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.fields.analytic import random_smooth_field
from repro.parallel.runtime import DivideAndConquerRuntime

FIELD = random_smooth_field(seed=4, n=65)
CFG = SpotNoiseConfig(n_spots=4000, texture_size=256, spot_mode="standard", seed=6)


def synthesize(config):
    particles = ParticleSet.uniform_random(config.n_spots, FIELD.grid.bounds, seed=8)
    with DivideAndConquerRuntime(config) as rt:
        texture, report = rt.synthesize(FIELD, particles)
    return texture, report


@pytest.fixture(scope="module")
def reference():
    texture, _ = synthesize(CFG.with_overrides(n_groups=1, backend="serial"))
    return texture


@pytest.mark.parametrize("backend", ["serial", "sharedmem"])
def test_fig5_backend(benchmark, backend, reference):
    cfg = CFG.with_overrides(n_groups=4, backend=backend)
    texture, report = benchmark.pedantic(synthesize, args=(cfg,), rounds=2, iterations=1)
    # Different group counts re-associate the additive blend, so agreement
    # is to float round-off, not bitwise.
    np.testing.assert_allclose(texture, reference, atol=1e-9)
    assert report.n_groups == 4


def test_fig5_report(benchmark, paper_report, reference):
    cfg = CFG.with_overrides(n_groups=4, partition="spatial", guard_px=24)
    texture, report = benchmark.pedantic(synthesize, args=(cfg,), rounds=2, iterations=1)
    np.testing.assert_allclose(texture, reference, atol=1e-9)
    paper_report(
        "fig5_divide_conquer",
        "Figure 5 decomposition executed end to end:\n"
        f"  {report.summary()}\n"
        "gathered texture identical to the sequential rendering for\n"
        "round-robin, block and spatial (tiled) partitions and for the\n"
        "serial and shared-memory process backends",
    )
