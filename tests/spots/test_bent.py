"""Tests for repro.spots.bent."""

import numpy as np
import pytest

from repro.errors import SpotError
from repro.fields.analytic import constant_field, vortex_field
from repro.spots.bent import BentSpotConfig, bent_spot_meshes, meshes_to_quads


class TestBentSpotConfig:
    def test_paper_mesh_counts(self):
        # Section 5.1 (32x17 mesh) and Section 5.2 (16x3 mesh).
        atm = BentSpotConfig(n_along=32, n_across=17, length=4.0, width=1.2)
        assert atm.vertices_per_spot == 32 * 17 == 544
        assert atm.quads_per_spot == 31 * 16 == 496
        dns = BentSpotConfig(n_along=16, n_across=3, length=3.0, width=0.8)
        assert dns.vertices_per_spot == 48
        assert dns.quads_per_spot == 30

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_along=1),
            dict(n_across=1),
            dict(length=0.0),
            dict(width=-1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SpotError):
            BentSpotConfig(**kwargs)


class TestBentSpotMeshes:
    def test_shapes(self):
        f = constant_field(1.0, 0.0, n=9)
        cfg = BentSpotConfig(n_along=8, n_across=3, length=0.2, width=0.05)
        verts, uvs = bent_spot_meshes(f.sample, np.zeros((5, 2)), cfg, 1.0)
        assert verts.shape == (5, 8, 3, 2)
        assert uvs.shape == (8, 3, 2)

    def test_uniform_flow_rectangular_strip(self):
        f = constant_field(2.0, 0.0, n=9)
        cfg = BentSpotConfig(n_along=5, n_across=3, length=0.4, width=0.1)
        verts, _ = bent_spot_meshes(f.sample, np.array([[0.0, 0.0]]), cfg, 2.0)
        # Spine along x, centred on the seed; width along y.
        xs = verts[0, :, 1, 0]  # middle row = the spine
        np.testing.assert_allclose(np.diff(xs), 0.1, atol=1e-9)
        np.testing.assert_allclose(verts[0, :, 1, 1], 0.0, atol=1e-9)
        np.testing.assert_allclose(verts[0, 0, 0, 1], -0.05, atol=1e-9)
        np.testing.assert_allclose(verts[0, 0, 2, 1], 0.05, atol=1e-9)

    def test_spine_length_matches_request(self):
        f = constant_field(1.0, 0.0, n=9)
        cfg = BentSpotConfig(n_along=9, n_across=2, length=0.32, width=0.02)
        verts, _ = bent_spot_meshes(f.sample, np.array([[0.0, 0.0]]), cfg, 1.0)
        spine = 0.5 * (verts[0, :, 0] + verts[0, :, 1])
        seg = np.diff(spine, axis=0)
        arc = np.hypot(seg[:, 0], seg[:, 1]).sum()
        assert arc == pytest.approx(0.32, rel=1e-6)

    def test_mesh_bends_in_vortex(self):
        f = vortex_field(n=65)
        cfg = BentSpotConfig(n_along=16, n_across=3, length=0.6, width=0.05)
        verts, _ = bent_spot_meshes(f.sample, np.array([[0.5, 0.0]]), cfg, f.max_magnitude())
        spine = verts[0, :, 1]
        radii = np.hypot(spine[:, 0], spine[:, 1])
        # Spine follows the circular streamline.
        np.testing.assert_allclose(radii, 0.5, atol=0.02)
        # And is genuinely curved (not a straight strip).
        chord = np.linalg.norm(spine[-1] - spine[0])
        seg = np.diff(spine, axis=0)
        arc = np.hypot(seg[:, 0], seg[:, 1]).sum()
        # ~0.42 rad of turning gives arc/chord ~ 1.0074.
        assert arc > chord * 1.005

    def test_zero_speed_hint_rejected(self):
        f = constant_field(n=9)
        with pytest.raises(SpotError):
            bent_spot_meshes(f.sample, np.zeros((1, 2)), BentSpotConfig(), 0.0)

    def test_bad_centers(self):
        f = constant_field(n=9)
        with pytest.raises(SpotError):
            bent_spot_meshes(f.sample, np.zeros((2, 3)), BentSpotConfig(), 1.0)


class TestMeshesToQuads:
    def test_counts(self):
        f = constant_field(1.0, 0.0, n=9)
        cfg = BentSpotConfig(n_along=4, n_across=3, length=0.2, width=0.05)
        verts, uvs = bent_spot_meshes(f.sample, np.zeros((7, 2)), cfg, 1.0)
        quads, quvs = meshes_to_quads(verts, uvs)
        assert quads.shape == (7 * 3 * 2, 4, 2)
        assert quvs.shape == quads.shape

    def test_quads_tile_the_strip_without_gaps(self):
        f = constant_field(1.0, 0.0, n=9)
        cfg = BentSpotConfig(n_along=3, n_across=2, length=0.2, width=0.1)
        verts, uvs = bent_spot_meshes(f.sample, np.array([[0.0, 0.0]]), cfg, 1.0)
        quads, _ = meshes_to_quads(verts, uvs)
        # Adjacent quads share an edge: quad 0's v1/v2 == quad 1's v0/v3.
        np.testing.assert_allclose(quads[0][1], quads[1][0])
        np.testing.assert_allclose(quads[0][2], quads[1][3])

    def test_uv_corners_span_unit_square(self):
        f = constant_field(1.0, 0.0, n=9)
        cfg = BentSpotConfig(n_along=4, n_across=4, length=0.2, width=0.1)
        verts, uvs = bent_spot_meshes(f.sample, np.zeros((1, 2)), cfg, 1.0)
        quads, quvs = meshes_to_quads(verts, uvs)
        assert quvs.min() == 0.0 and quvs.max() == 1.0

    def test_shape_validation(self):
        with pytest.raises(SpotError):
            meshes_to_quads(np.zeros((2, 3, 3)), np.zeros((3, 3, 2)))
        with pytest.raises(SpotError):
            meshes_to_quads(np.zeros((2, 3, 3, 2)), np.zeros((4, 3, 2)))
