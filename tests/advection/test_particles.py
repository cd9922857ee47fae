"""Tests for repro.advection.particles and lifecycle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advection.lifecycle import LifeCyclePolicy
from repro.advection.particles import ParticleSet
from repro.errors import AdvectionError

BOUNDS = (0.0, 1.0, 0.0, 1.0)


class TestParticleSetConstruction:
    def test_uniform_random_within_bounds(self):
        ps = ParticleSet.uniform_random(500, BOUNDS, seed=0)
        assert len(ps) == 500
        assert ps.positions[:, 0].min() >= 0.0 and ps.positions[:, 0].max() <= 1.0
        assert ps.positions[:, 1].min() >= 0.0 and ps.positions[:, 1].max() <= 1.0

    def test_intensities_zero_mean_family(self):
        ps = ParticleSet.uniform_random(4000, BOUNDS, seed=1, intensity=2.0)
        assert set(np.unique(ps.intensities)) == {-2.0, 2.0}
        # Statistical: mean ~ 0 within 5 sigma.
        assert abs(ps.intensities.mean()) < 5 * 2.0 / np.sqrt(4000)

    def test_negative_count_raises(self):
        with pytest.raises(AdvectionError):
            ParticleSet.uniform_random(-1, BOUNDS)

    def test_lifetime_staggering(self):
        ps = ParticleSet.uniform_random(200, BOUNDS, seed=2, lifetime=50)
        assert ps.ages.min() >= 0 and ps.ages.max() < 50
        assert len(np.unique(ps.ages)) > 10  # actually staggered

    def test_bad_lifetime(self):
        with pytest.raises(AdvectionError):
            ParticleSet.uniform_random(10, BOUNDS, lifetime=0)

    def test_mismatched_arrays(self):
        with pytest.raises(AdvectionError):
            ParticleSet(np.zeros((5, 2)), np.zeros(4))


class TestSubsetConcat:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 60), k=st.integers(1, 5))
    def test_concat_of_partition_preserves_everything(self, n, k):
        ps = ParticleSet.uniform_random(n, BOUNDS, seed=4)
        parts = [
            ParticleSet(ps.positions[idx], ps.intensities[idx], ps.ages[idx], ps.lifetimes[idx])
            for idx in (np.arange(g, n, k) for g in range(k))
        ]
        merged = ParticleSet.concatenate(parts)
        assert len(merged) == n
        # Round-robin interleave: sort both by position to compare as sets.
        key = lambda p: np.lexsort((p.positions[:, 1], p.positions[:, 0]))
        np.testing.assert_allclose(
            merged.positions[key(merged)], ps.positions[key(ps)]
        )

    def test_concat_empty_raises(self):
        with pytest.raises(AdvectionError):
            ParticleSet.concatenate([])


class TestAgingAndRespawn:
    def test_age_one_frame_flags_expired(self):
        ps = ParticleSet.uniform_random(10, BOUNDS, seed=5, lifetime=3, stagger_ages=False)
        assert not ps.age_one_frame().any()
        assert not ps.age_one_frame().any()
        assert ps.age_one_frame().all()

    def test_respawn_resets_age_and_positions(self):
        ps = ParticleSet.uniform_random(50, BOUNDS, seed=6, lifetime=2, stagger_ages=False)
        ps.positions[:] = 5.0  # move everyone out
        mask = np.ones(50, dtype=bool)
        n = ps.respawn(mask, BOUNDS, np.random.default_rng(0))
        assert n == 50
        assert ps.positions.max() <= 1.0
        assert (ps.ages == 0).all()

    def test_respawn_empty_mask(self):
        ps = ParticleSet.uniform_random(5, BOUNDS, seed=7)
        assert ps.respawn(np.zeros(5, bool), BOUNDS, np.random.default_rng(0)) == 0

    def test_fade_weights_all_one_without_fading(self):
        ps = ParticleSet.uniform_random(5, BOUNDS, seed=8)
        np.testing.assert_array_equal(ps.fade_weights(0), np.ones(5))

    def test_fade_weights_young_particles_faded(self):
        ps = ParticleSet.uniform_random(4, BOUNDS, seed=9, lifetime=100, stagger_ages=False)
        w = ps.fade_weights(fade_frames=4)
        np.testing.assert_allclose(w, 0.25)  # age 0 -> (0+1)/4

    def test_fade_weights_near_death(self):
        ps = ParticleSet.uniform_random(4, BOUNDS, seed=10, lifetime=10, stagger_ages=False)
        ps.ages[:] = 9
        w = ps.fade_weights(fade_frames=4)
        np.testing.assert_allclose(w, 0.25)  # 1 frame left of 4


class TestLifeCyclePolicy:
    def test_invalid_mode(self):
        with pytest.raises(AdvectionError):
            LifeCyclePolicy(position_mode="teleport")

    def test_invalid_boundary(self):
        with pytest.raises(AdvectionError):
            LifeCyclePolicy(boundary="bounce")

    def test_negative_lifetime(self):
        with pytest.raises(AdvectionError):
            LifeCyclePolicy(lifetime=-1)

    def test_factories(self):
        assert LifeCyclePolicy.default_spot_noise().position_mode == "static"

    def test_apply_boundary_respawn(self):
        policy = LifeCyclePolicy(boundary="respawn")
        ps = ParticleSet.uniform_random(20, BOUNDS, seed=11)
        ps.positions[:10] = 2.0
        n = policy.apply_boundary(ps, BOUNDS, np.random.default_rng(1))
        assert n == 10
        assert ps.positions.max() <= 1.0

    def test_apply_boundary_wrap(self):
        policy = LifeCyclePolicy(boundary="wrap")
        ps = ParticleSet.uniform_random(5, BOUNDS, seed=12)
        ps.positions[0] = [1.25, -0.25]
        policy.apply_boundary(ps, BOUNDS, np.random.default_rng(1))
        np.testing.assert_allclose(ps.positions[0], [0.25, 0.75])

    def test_apply_boundary_clamp(self):
        policy = LifeCyclePolicy(boundary="clamp")
        ps = ParticleSet.uniform_random(5, BOUNDS, seed=13)
        ps.positions[0] = [9.0, -9.0]
        policy.apply_boundary(ps, BOUNDS, np.random.default_rng(1))
        np.testing.assert_allclose(ps.positions[0], [1.0, 0.0])

    def test_apply_aging_without_lifetime_is_noop(self):
        policy = LifeCyclePolicy(lifetime=0)
        ps = ParticleSet.uniform_random(5, BOUNDS, seed=14)
        assert policy.apply_aging(ps, BOUNDS, np.random.default_rng(1)) == 0
