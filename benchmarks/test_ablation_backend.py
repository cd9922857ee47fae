"""Ablation: execution backend (design choice 6 of DESIGN.md).

Times the same divide-and-conquer decomposition on the serial and
shared-memory process backends.  On a single-CPU host the parallel
backend mostly measures its own dispatch overhead — the point is that the decomposition
is backend-agnostic and the outputs are identical; wall-clock speedups
belong to the calibrated machine model.
"""

import numpy as np
import pytest

from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.fields.analytic import random_smooth_field
from repro.parallel.runtime import DivideAndConquerRuntime

FIELD = random_smooth_field(seed=17, n=65)
CFG = SpotNoiseConfig(n_spots=3000, texture_size=192, spot_mode="standard", seed=18)


def synthesize(backend):
    cfg = CFG.with_overrides(n_groups=4, backend=backend)
    ps = ParticleSet.uniform_random(cfg.n_spots, FIELD.grid.bounds, seed=18)
    with DivideAndConquerRuntime(cfg) as rt:
        texture, _ = rt.synthesize(FIELD, ps)
    return texture


@pytest.fixture(scope="module")
def reference():
    return synthesize("serial")


@pytest.mark.parametrize("backend", ["serial", "sharedmem"])
def test_backend_timing(benchmark, backend, reference):
    texture = benchmark.pedantic(synthesize, args=(backend,), rounds=2, iterations=1)
    np.testing.assert_array_equal(texture, reference)
