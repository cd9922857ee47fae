"""Tests for the divide-and-conquer runtime: the core correctness claims.

The paper's decomposition is valid because spots are independent and the
blend is an associative, commutative sum (section 3).  These tests pin
that down: every group count, partition strategy and backend must produce
the same texture as the sequential reference.
"""

import numpy as np
import pytest

from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.errors import PartitionError
from repro.fields.analytic import random_smooth_field, vortex_field
from repro.parallel.backends import get_backend
from repro.parallel.runtime import DivideAndConquerRuntime, spot_reach_world

from oracles import exact_rasteriser


FIELD = vortex_field(n=33)


def make_particles(n=300, seed=3):
    return ParticleSet.uniform_random(n, FIELD.grid.bounds, seed=seed)


def synthesize(config, particles=None, field=FIELD):
    particles = particles or make_particles()
    with DivideAndConquerRuntime(config) as rt:
        texture, report = rt.synthesize(field, particles)
    return texture, report


BASE = SpotNoiseConfig(
    n_spots=300, texture_size=64, spot_mode="standard", seed=3
)


class TestSequentialEquivalence:
    """D&C output == single-group output, the central invariant."""

    @pytest.mark.parametrize("n_groups", [2, 3, 4, 7])
    @pytest.mark.parametrize("partition", ["round_robin", "block"])
    def test_nonspatial_groups_exact(self, n_groups, partition):
        ps = make_particles()
        ref, _ = synthesize(BASE, ps.copy())
        out, rep = synthesize(
            BASE.with_overrides(n_groups=n_groups, partition=partition), ps.copy()
        )
        np.testing.assert_allclose(out, ref, atol=1e-9)
        assert rep.duplication == pytest.approx(1.0)

    @pytest.mark.parametrize("n_groups", [2, 4])
    def test_spatial_tiling_exact(self, n_groups):
        ps = make_particles()
        ref, _ = synthesize(BASE, ps.copy())
        out, rep = synthesize(
            BASE.with_overrides(n_groups=n_groups, partition="spatial", guard_px=16),
            ps.copy(),
        )
        np.testing.assert_allclose(out, ref, atol=1e-9)
        assert rep.duplication >= 1.0

    def test_bent_spots_spatial_tiling_exact(self):
        cfg = SpotNoiseConfig(
            n_spots=60,
            texture_size=64,
            spot_mode="bent",
            seed=5,
        ).with_overrides(
            bent=SpotNoiseConfig().bent.__class__(
                n_along=6, n_across=3, length_cells=2.0, width_cells=0.8
            )
        )
        ps = ParticleSet.uniform_random(60, FIELD.grid.bounds, seed=5)
        ref, _ = synthesize(cfg, ps.copy())
        out, _ = synthesize(
            cfg.with_overrides(n_groups=4, partition="spatial", guard_px=24), ps.copy()
        )
        np.testing.assert_allclose(out, ref, atol=1e-9)

    def test_exact_render_mode_equivalence(self):
        ps = make_particles(150)
        with exact_rasteriser():
            ref, _ = synthesize(BASE, ps.copy())
            out, _ = synthesize(BASE.with_overrides(n_groups=3), ps.copy())
        np.testing.assert_allclose(out, ref, atol=1e-9)


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "sharedmem"])
    def test_backends_identical(self, backend):
        ps = make_particles()
        ref, _ = synthesize(BASE.with_overrides(n_groups=2), ps.copy())
        out, _ = synthesize(
            BASE.with_overrides(n_groups=2, backend=backend), ps.copy()
        )
        np.testing.assert_array_equal(out, ref)

    def test_unknown_backend(self):
        from repro.errors import BackendError

        with pytest.raises(BackendError):
            get_backend("gpu")

    def test_process_is_not_a_backend(self):
        # serial and sharedmem are the only backends: "process" and
        # "thread" name nothing in config validation, get_backend or the
        # planner.
        from repro.errors import BackendError, PipelineError
        from repro.machine.workload import SpotWorkload
        from repro.parallel.planner import DecompositionPlanner

        workload = SpotWorkload.standard_spots(300, texture_size=64)
        for name in ("process", "thread"):
            with pytest.raises(BackendError):
                get_backend(name)
            with pytest.raises(PipelineError):
                SpotNoiseConfig(backend=name)
            with pytest.raises(BackendError):
                DecompositionPlanner().price(workload, name, 2)
            plan = DecompositionPlanner(host_workers=8).plan(workload)
            assert name not in {c.backend for c in plan.candidates}


class TestRasterBackendEquivalence:
    """The batched kernel must agree bit for bit with the per-quad
    reference oracle, whatever the partition strategy or execution
    backend.  The oracle renders serially (:func:`exact_rasteriser`
    reaches only this process); the batched frame runs on *backend*."""

    CFG = BASE.with_overrides(n_spots=120)

    @pytest.mark.parametrize("backend", ["serial", "sharedmem"])
    @pytest.mark.parametrize(
        "partition,n_groups", [("round_robin", 3), ("block", 3), ("spatial", 4)]
    )
    def test_bitwise_identical_across_matrix(self, partition, n_groups, backend):
        ps = make_particles(120, seed=11)
        overrides = dict(partition=partition, n_groups=n_groups, guard_px=16)
        with exact_rasteriser():
            ref, _ = synthesize(self.CFG.with_overrides(**overrides), ps.copy())
        out, _ = synthesize(
            self.CFG.with_overrides(backend=backend, **overrides), ps.copy()
        )
        np.testing.assert_array_equal(out, ref)

    def test_bent_spots_bitwise_identical(self):
        bent = SpotNoiseConfig(
            n_spots=50,
            texture_size=64,
            spot_mode="bent",
            seed=13,
        ).with_overrides(
            bent=SpotNoiseConfig().bent.__class__(
                n_along=6, n_across=3, length_cells=2.0, width_cells=0.8
            )
        )
        ps = ParticleSet.uniform_random(50, FIELD.grid.bounds, seed=13)
        with exact_rasteriser():
            ref, _ = synthesize(bent, ps.copy())
        out, _ = synthesize(bent, ps.copy())
        np.testing.assert_array_equal(out, ref)


class TestGuardValidation:
    def test_insufficient_guard_rejected(self):
        # Huge spots cannot fit a tiny guard band.
        cfg = BASE.with_overrides(
            n_groups=4, partition="spatial", guard_px=1, spot_radius_cells=4.0
        )
        with pytest.raises(PartitionError):
            synthesize(cfg)

    def test_spot_reach_standard_grows_with_anisotropy(self):
        lo = spot_reach_world(BASE.with_overrides(anisotropy=0.0), 0.1)
        hi = spot_reach_world(BASE.with_overrides(anisotropy=2.0), 0.1)
        assert hi > lo

    def test_spot_reach_bent_scales_with_length(self):
        cfg_short = SpotNoiseConfig(spot_mode="bent").with_overrides(
            bent=SpotNoiseConfig().bent.__class__(length_cells=2.0)
        )
        cfg_long = SpotNoiseConfig(spot_mode="bent").with_overrides(
            bent=SpotNoiseConfig().bent.__class__(length_cells=8.0)
        )
        assert spot_reach_world(cfg_long, 0.1) > spot_reach_world(cfg_short, 0.1)


class TestReport:
    def test_counters_accumulate_over_groups(self):
        _, rep = synthesize(BASE.with_overrides(n_groups=3))
        assert rep.counters.quads_drawn == 300
        assert rep.counters.vertices_in == 1200
        assert sum(rep.spots_per_group) == 300

    def test_summary_readable(self):
        _, rep = synthesize(BASE.with_overrides(n_groups=2))
        text = rep.summary()
        assert "2 groups" in text and "300 spots" in text

    def test_empty_group_tolerated(self):
        # More groups than spots: some groups receive zero spots.
        cfg = BASE.with_overrides(n_groups=4, n_spots=2)
        ps = make_particles(2)
        out, rep = synthesize(cfg, ps)
        assert out.shape == (64, 64)
        assert sorted(rep.spots_per_group) == [0, 0, 1, 1]


class TestDeterminism:
    def test_same_seed_same_texture(self):
        a, _ = synthesize(BASE, make_particles(seed=9))
        b, _ = synthesize(BASE, make_particles(seed=9))
        np.testing.assert_array_equal(a, b)

    def test_different_field_different_texture(self):
        ps = make_particles()
        a, _ = synthesize(BASE, ps.copy())
        other = random_smooth_field(seed=1, n=33)
        b, _ = synthesize(BASE, ps.copy(), field=other)
        assert not np.allclose(a, b)
