"""Backend lifecycle: degenerate workloads through every backend.

Frames without groups and zero-spot groups must work on every backend
and give the serial result.  The shared-memory pool's persistence across
frames and its recovery after errors live in ``test_sharedmem.py``.
"""

import numpy as np
import pytest

from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.fields.analytic import vortex_field
from repro.parallel.backends import get_backend
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.parallel.groups import FrameWork, GroupSpec

FIELD = vortex_field(n=33)
BASE = SpotNoiseConfig(
    n_spots=12, texture_size=32, spot_mode="standard", seed=3
)


def make_frame(*sizes, config=BASE):
    """One frame whose group ``g`` holds ``sizes[g]`` random spots."""
    rng = np.random.default_rng(1)
    x0, x1, y0, y1 = FIELD.grid.bounds
    n = sum(sizes)
    starts = np.cumsum((0,) + sizes)
    return FrameWork(
        field=FIELD,
        config=config,
        positions=rng.uniform((x0, y0), (x1, y1), (n, 2)),
        intensities=np.where(rng.random(n) < 0.5, -1.0, 1.0),
        groups=[
            GroupSpec(
                group_index=g,
                indices=np.arange(starts[g], starts[g + 1]),
                fb_size=(config.texture_size, config.texture_size),
                fb_window=FIELD.grid.bounds,
            )
            for g in range(len(sizes))
        ],
    )


class TestEmptyWork:
    @pytest.mark.parametrize("backend", ["serial", "sharedmem"])
    def test_no_tasks(self, backend):
        with get_backend(backend) as be:
            assert be.run_frame(make_frame()) == []

    @pytest.mark.parametrize("backend", ["serial", "sharedmem"])
    def test_all_groups_empty(self, backend):
        with get_backend(backend) as be:
            results = be.run_frame(make_frame(0, 0, 0))
        assert [r.group_index for r in results] == [0, 1, 2]
        for r in results:
            assert r.n_spots == 0
            assert float(np.abs(r.texture).sum()) == 0.0

    @pytest.mark.parametrize("backend", ["serial", "sharedmem"])
    @pytest.mark.parametrize("partition", ["round_robin", "block", "spatial"])
    def test_more_groups_than_spots(self, backend, partition):
        # 2 spots over 4 groups: at least two groups receive zero spots.
        cfg = BASE.with_overrides(
            n_spots=2, n_groups=4, backend=backend, partition=partition, guard_px=12
        )
        ps = ParticleSet.uniform_random(2, FIELD.grid.bounds, seed=5)
        ref_cfg = BASE.with_overrides(n_spots=2)
        with DivideAndConquerRuntime(ref_cfg) as rt:
            ref, _ = rt.synthesize(FIELD, ps.copy())
        with DivideAndConquerRuntime(cfg) as rt:
            out, rep = rt.synthesize(FIELD, ps.copy())
        assert 0 in rep.spots_per_group
        np.testing.assert_allclose(out, ref, atol=1e-9)


class TestFrameInterface:
    @pytest.mark.parametrize("backend", ["serial", "sharedmem"])
    def test_run_frame_is_the_only_work_method(self, backend):
        with get_backend(backend) as be:
            assert not hasattr(be, "run")
            results = be.run_frame(make_frame(4, 2))
        assert [(r.group_index, r.n_spots) for r in results] == [(0, 4), (1, 2)]
