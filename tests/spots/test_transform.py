"""Tests for repro.spots.transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpotError
from repro.spots.transform import (
    anisotropy_factors,
    flow_transforms,
    spot_quads,
)

from oracles import quad_areas


class TestAnisotropyFactors:
    def test_zero_scale_keeps_circles(self):
        f = anisotropy_factors(np.array([0.0, 1.0, 5.0]), scale=0.0, v_ref=1.0)
        np.testing.assert_array_equal(f, 1.0)

    def test_grows_with_speed(self):
        f = anisotropy_factors(np.array([0.0, 1.0, 2.0]), scale=1.0, v_ref=2.0)
        np.testing.assert_allclose(f, [1.0, 1.5, 2.0])

    def test_bad_vref(self):
        with pytest.raises(SpotError):
            anisotropy_factors(np.array([1.0]), 1.0, 0.0)

    def test_bad_scale(self):
        with pytest.raises(SpotError):
            anisotropy_factors(np.array([1.0]), -1.0, 1.0)


class TestFlowTransforms:
    def test_area_preserved(self):
        rng = np.random.default_rng(0)
        vel = rng.uniform(-2, 2, (50, 2))
        m = flow_transforms(vel, radius=0.1, scale=1.5, v_ref=2.0)
        dets = np.linalg.det(m)
        np.testing.assert_allclose(dets, 0.01, rtol=1e-12)

    def test_major_axis_along_flow(self):
        vel = np.array([[3.0, 0.0], [0.0, 3.0]])
        m = flow_transforms(vel, radius=1.0, scale=1.0, v_ref=3.0)
        # First column is the major axis (radius * factor along flow dir).
        np.testing.assert_allclose(m[0, :, 0], [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(m[1, :, 0], [0.0, 2.0], atol=1e-12)

    def test_zero_velocity_stays_circular(self):
        m = flow_transforms(np.array([[0.0, 0.0]]), radius=0.5, scale=2.0, v_ref=1.0)
        np.testing.assert_allclose(m[0], [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_bad_radius(self):
        with pytest.raises(SpotError):
            flow_transforms(np.zeros((1, 2)), radius=0.0, scale=1.0, v_ref=1.0)

    def test_bad_velocity_shape(self):
        with pytest.raises(SpotError):
            flow_transforms(np.zeros((2, 3)), radius=1.0, scale=1.0, v_ref=1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        vx=st.floats(-5, 5, allow_nan=False),
        vy=st.floats(-5, 5, allow_nan=False),
        scale=st.floats(0, 3),
    )
    def test_transform_is_rotation_times_diag(self, vx, vy, scale):
        m = flow_transforms(np.array([[vx, vy]]), radius=1.0, scale=scale, v_ref=5.0)[0]
        # Columns must be orthogonal (ellipse axes).
        assert abs(m[:, 0] @ m[:, 1]) < 1e-9


class TestSpotQuads:
    def test_identity_transform_unit_square(self):
        centers = np.array([[1.0, 2.0]])
        transforms = np.eye(2)[None, :, :]
        verts, uvs = spot_quads(centers, transforms)
        assert verts.shape == (1, 4, 2)
        np.testing.assert_allclose(verts[0, 0], [0.0, 1.0])  # center + (-1,-1)
        np.testing.assert_allclose(verts[0, 2], [2.0, 3.0])  # center + (1,1)
        assert uvs.shape == (1, 4, 2)
        np.testing.assert_array_equal(uvs[0, 0], [0.0, 0.0])
        np.testing.assert_array_equal(uvs[0, 2], [1.0, 1.0])

    def test_ccw_winding_positive_area(self):
        centers = np.zeros((3, 2))
        transforms = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
        verts, _ = spot_quads(centers, transforms)
        assert (quad_areas(verts) > 0).all()

    def test_area_formula(self):
        centers = np.zeros((1, 2))
        transforms = (2.0 * np.eye(2))[None, :, :]
        verts, _ = spot_quads(centers, transforms)
        # Square with half-side 2 -> area 16.
        np.testing.assert_allclose(quad_areas(verts), [16.0])

    def test_matches_einsum_oracle_bit_for_bit(self):
        # The contraction spot_quads replaced: centre plus M @ corner.
        # Compared with array_equal and signbit, never a tolerance, over
        # zero-velocity spots (whose matrices hold -0.0) and signed-zero
        # centres as well as ordinary ones.
        from repro.spots.transform import _QUAD_LOCAL

        rng = np.random.default_rng(7)
        for scale in (0.0, 1.5):
            vel = rng.normal(size=(1250, 2))
            vel[:40] = 0.0
            vel[40:50] = -0.0
            centers = rng.uniform(-3, 3, (1250, 2)) * 10.0 ** rng.uniform(-3, 3, (1250, 1))
            centers[:20] = 0.0
            centers[20:30] = -0.0
            m = flow_transforms(vel, radius=0.04, scale=scale, v_ref=1.0)
            assert np.signbit(m).any() and (m == 0).any()
            verts, _ = spot_quads(centers, m)
            oracle = centers[:, None, :] + np.einsum("nij,cj->nci", m, _QUAD_LOCAL)
            assert np.array_equal(verts, oracle)
            assert np.array_equal(np.signbit(verts), np.signbit(oracle))

    def test_transform_count_mismatch(self):
        with pytest.raises(SpotError):
            spot_quads(np.zeros((2, 2)), np.zeros((1, 2, 2)))

    def test_quad_area_respects_transform_det(self):
        rng = np.random.default_rng(1)
        vel = rng.uniform(-1, 1, (20, 2))
        m = flow_transforms(vel, radius=0.3, scale=1.0, v_ref=1.0)
        verts, _ = spot_quads(rng.uniform(-1, 1, (20, 2)), m)
        # Quad area = 4 * det(M) (unit square side 2).
        np.testing.assert_allclose(quad_areas(verts), 4 * np.linalg.det(m), rtol=1e-10)
