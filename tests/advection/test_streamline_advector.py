"""Tests for repro.advection.streamline and advector."""

import numpy as np
import pytest

from repro.advection.advector import Advector
from repro.advection.lifecycle import LifeCyclePolicy
from repro.advection.particles import ParticleSet
from repro.advection.streamline import streamline_bundle
from repro.errors import AdvectionError
from repro.fields.analytic import constant_field, vortex_field

from oracles import within_bounds


class TestStreamlineBundle:
    def test_shapes(self):
        f = constant_field(1.0, 0.0, n=9)
        seeds = np.zeros((7, 2))
        out = streamline_bundle(f.sample, seeds, n_steps=10, dt=0.01)
        assert out.shape == (7, 11, 2)

    def test_uniform_flow_straight_lines(self):
        f = constant_field(2.0, 0.0, n=9)
        out = streamline_bundle(f.sample, np.array([[0.0, 0.0]]), n_steps=4, dt=0.1)
        xs = out[0, :, 0]
        np.testing.assert_allclose(np.diff(xs), 0.2, atol=1e-12)
        np.testing.assert_allclose(out[0, :, 1], 0.0, atol=1e-12)

    def test_bidirectional_centred_on_seed(self):
        f = constant_field(1.0, 0.0, n=9)
        out = streamline_bundle(f.sample, np.array([[0.0, 0.0]]), n_steps=4, dt=0.1)
        np.testing.assert_allclose(out[0, 2], [0.0, 0.0], atol=1e-12)
        assert out[0, 0, 0] < 0 < out[0, -1, 0]

    def test_forward_only(self):
        f = constant_field(1.0, 0.0, n=9)
        out = streamline_bundle(
            f.sample, np.array([[0.0, 0.0]]), n_steps=4, dt=0.1, bidirectional=False
        )
        np.testing.assert_allclose(out[0, 0], [0.0, 0.0], atol=1e-12)
        assert (np.diff(out[0, :, 0]) > 0).all()

    def test_vortex_streamline_stays_on_circle(self):
        f = vortex_field(n=65)
        curve = streamline_bundle(f.sample, np.array([[0.5, 0.0]]), 40, 0.02)[0]
        radii = np.hypot(curve[:, 0], curve[:, 1])
        np.testing.assert_allclose(radii, 0.5, atol=5e-3)

    @pytest.mark.parametrize("bad_steps", [0, -3])
    def test_bad_steps(self, bad_steps):
        f = constant_field(n=9)
        with pytest.raises(AdvectionError):
            streamline_bundle(f.sample, np.zeros((1, 2)), bad_steps, 0.1)

    def test_bad_dt(self):
        f = constant_field(n=9)
        with pytest.raises(AdvectionError):
            streamline_bundle(f.sample, np.zeros((1, 2)), 4, 0.0)


class TestAdvector:
    def test_uniform_flow_moves_linearly(self):
        f = constant_field(1.0, 0.0, n=9)
        adv = Advector(f, dt=0.1, policy=LifeCyclePolicy(boundary="clamp"))
        ps = ParticleSet(np.array([[-0.5, 0.0]]), np.array([1.0]))
        adv.advance(ps)
        np.testing.assert_allclose(ps.positions, [[-0.4, 0.0]], atol=1e-12)

    def test_static_mode_never_moves(self):
        f = constant_field(5.0, 5.0, n=9)
        adv = Advector(f, dt=0.1, policy=LifeCyclePolicy(position_mode="static"))
        ps = ParticleSet(np.array([[0.0, 0.0]]), np.array([1.0]))
        before = ps.positions.copy()
        adv.run(ps, 5)
        np.testing.assert_array_equal(ps.positions, before)

    def test_rerandomize_mode_moves_all(self):
        f = constant_field(0.0, 0.0, n=9)
        adv = Advector(f, dt=0.1, policy=LifeCyclePolicy(position_mode="rerandomize"), seed=3)
        ps = ParticleSet.uniform_random(50, f.grid.bounds, seed=1)
        before = ps.positions.copy()
        adv.advance(ps)
        assert not np.allclose(ps.positions, before)

    def test_auto_dt_half_cell(self):
        f = constant_field(2.0, 0.0, n=11)  # spacing 0.2, vmax 2
        adv = Advector(f)
        assert adv.dt == pytest.approx(0.5 * 0.2 / 2.0)

    def test_auto_dt_zero_field(self):
        f = constant_field(0.0, 0.0, n=9)
        assert Advector(f).dt == 1.0

    def test_respawn_keeps_particles_inside(self):
        f = constant_field(10.0, 0.0, n=9)
        adv = Advector(f, dt=0.3, policy=LifeCyclePolicy(boundary="respawn"), seed=5)
        ps = ParticleSet.uniform_random(100, f.grid.bounds, seed=2)
        stats = adv.run(ps, 10)
        assert within_bounds(f.grid, ps.positions)
        assert sum(s.n_respawned for s in stats) > 0

    def test_ensure_lifetimes_installs_policy_lifetime(self):
        f = constant_field(1.0, 0.0, n=9)
        adv = Advector(f, dt=0.01, policy=LifeCyclePolicy(lifetime=7), seed=1)
        ps = ParticleSet.uniform_random(30, f.grid.bounds, seed=3)
        adv.advance(ps)
        assert (ps.lifetimes == 7).all()

    def test_field_evals_counted(self):
        f = constant_field(1.0, 0.0, n=9)
        adv = Advector(f, dt=0.01, integrator="rk4", policy=LifeCyclePolicy())
        ps = ParticleSet.uniform_random(10, f.grid.bounds, seed=4)
        stats = adv.advance(ps)
        assert stats.field_evals == 40

    def test_negative_frames_rejected(self):
        f = constant_field(n=9)
        adv = Advector(f, dt=0.01)
        ps = ParticleSet.uniform_random(5, f.grid.bounds, seed=1)
        with pytest.raises(AdvectionError):
            adv.run(ps, -1)

    def test_field_swap_preserves_particles(self):
        f1 = constant_field(1.0, 0.0, n=9)
        f2 = constant_field(0.0, 1.0, n=9)
        adv = Advector(f1, dt=0.1, policy=LifeCyclePolicy(boundary="clamp"))
        ps = ParticleSet(np.array([[0.0, 0.0]]), np.array([1.0]))
        adv.advance(ps)
        adv.field = f2
        adv.advance(ps)
        np.testing.assert_allclose(ps.positions, [[0.1, 0.1]], atol=1e-12)
