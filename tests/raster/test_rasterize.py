"""Tests for repro.raster.rasterize and texture."""

import numpy as np
import pytest

from repro.errors import RasterError
from repro.raster.framebuffer import FrameBuffer
from repro.raster.rasterize import rasterize_quads_exact, rasterize_triangle
from repro.raster.texture import Texture

WIN = (0.0, 1.0, 0.0, 1.0)


def unit_quad(x0, x1, y0, y1):
    return np.array([[[x0, y0], [x1, y0], [x1, y1], [x0, y1]]], dtype=float)


UV = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])


class TestTexture:
    def test_nearest_lookup(self):
        t = Texture(np.array([[1.0, 2.0], [3.0, 4.0]]), filter="nearest")
        out = t.sample(np.array([0.25, 0.75]), np.array([0.25, 0.75]))
        np.testing.assert_array_equal(out, [1.0, 4.0])

    def test_bilinear_center(self):
        t = Texture(np.array([[0.0, 1.0], [1.0, 2.0]]))
        assert t.sample(np.array([0.5]), np.array([0.5]))[0] == pytest.approx(1.0)

    def test_clamp_to_edge(self):
        t = Texture(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert t.sample(np.array([-1.0]), np.array([-1.0]))[0] == pytest.approx(1.0)
        assert t.sample(np.array([2.0]), np.array([2.0]))[0] == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(RasterError):
            Texture(np.zeros(4))
        with pytest.raises(RasterError):
            Texture(np.zeros((2, 2)), filter="trilinear")

    def test_nbytes(self):
        assert Texture(np.zeros((4, 8))).nbytes() == 4 * 8 * 8


class TestRasterizeTriangle:
    def test_full_buffer_triangle_covers_half(self):
        fb = FrameBuffer(32, 32, WIN)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        uvs = np.zeros((3, 2))
        n = rasterize_triangle(fb, verts, uvs, 1.0)
        assert n == pytest.approx(32 * 32 / 2, rel=0.1)

    def test_winding_insensitive(self):
        fb1 = FrameBuffer(16, 16, WIN)
        fb2 = FrameBuffer(16, 16, WIN)
        verts = np.array([[0.1, 0.1], [0.9, 0.2], [0.4, 0.8]])
        uvs = np.zeros((3, 2))
        rasterize_triangle(fb1, verts, uvs, 1.0)
        rasterize_triangle(fb2, verts[::-1], uvs[::-1], 1.0)
        np.testing.assert_array_equal(fb1.data, fb2.data)

    def test_degenerate_zero_coverage(self):
        fb = FrameBuffer(16, 16, WIN)
        verts = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])  # collinear
        assert rasterize_triangle(fb, verts, np.zeros((3, 2)), 1.0) == 0

    def test_offscreen_clipped(self):
        fb = FrameBuffer(16, 16, WIN)
        verts = np.array([[5.0, 5.0], [6.0, 5.0], [5.0, 6.0]])
        assert rasterize_triangle(fb, verts, np.zeros((3, 2)), 1.0) == 0

    def test_bad_exclusive_edge(self):
        fb = FrameBuffer(4, 4, WIN)
        with pytest.raises(RasterError):
            rasterize_triangle(fb, np.zeros((3, 2)), np.zeros((3, 2)), 1.0, exclusive_edge=5)


class TestRasterizeQuadsExact:
    def test_full_coverage_quad(self):
        fb = FrameBuffer(16, 16, WIN)
        n = rasterize_quads_exact(fb, unit_quad(0, 1, 0, 1), UV, np.array([2.0]))
        assert n == 256
        np.testing.assert_array_equal(fb.data, 2.0)

    def test_no_double_coverage_on_diagonal(self):
        # The quad diagonal passes exactly through pixel centres when the
        # quad is the full square of an even-sized buffer.
        fb = FrameBuffer(8, 8, WIN)
        rasterize_quads_exact(fb, unit_quad(0, 1, 0, 1), UV, np.array([1.0]))
        np.testing.assert_array_equal(fb.data, 1.0)  # each pixel exactly once

    def test_half_pixel_quad_covers_nothing_or_one(self):
        fb = FrameBuffer(8, 8, WIN)
        n = rasterize_quads_exact(fb, unit_quad(0.0, 0.05, 0.0, 0.05), UV, np.array([1.0]))
        assert n <= 1

    def test_additive_blending(self):
        fb = FrameBuffer(8, 8, WIN)
        q = np.concatenate([unit_quad(0, 1, 0, 1)] * 3)
        uv = np.concatenate([UV] * 3)
        rasterize_quads_exact(fb, q, uv, np.array([1.0, 2.0, -0.5]))
        np.testing.assert_allclose(fb.data, 2.5)

    def test_texture_mapping_gradient(self):
        # Texture = u coordinate; rendered quad must reproduce the ramp.
        ramp = np.tile(np.linspace(0, 1, 64)[None, :], (64, 1))
        tex = Texture(ramp)
        fb = FrameBuffer(32, 32, WIN)
        rasterize_quads_exact(fb, unit_quad(0, 1, 0, 1), UV, np.array([1.0]), tex)
        # Left column near 0, right column near 1, monotone along x.
        assert fb.data[:, 0].mean() < 0.1
        assert fb.data[:, -1].mean() > 0.9
        assert (np.diff(fb.data.mean(axis=0)) >= -1e-9).all()

    def test_rotated_quad_same_total_as_axis_aligned(self):
        # Conservation-ish: a rotated square deposits a similar total.
        fb1 = FrameBuffer(64, 64, (-1, 1, -1, 1))
        fb2 = FrameBuffer(64, 64, (-1, 1, -1, 1))
        sq = unit_quad(-0.4, 0.4, -0.4, 0.4)
        c, s = np.cos(0.5), np.sin(0.5)
        rot = sq.copy()
        rot[0, :, 0] = c * sq[0, :, 0] - s * sq[0, :, 1]
        rot[0, :, 1] = s * sq[0, :, 0] + c * sq[0, :, 1]
        rasterize_quads_exact(fb1, sq, UV, np.array([1.0]))
        rasterize_quads_exact(fb2, rot, UV, np.array([1.0]))
        assert fb2.data.sum() == pytest.approx(fb1.data.sum(), rel=0.05)

    def test_validation(self):
        fb = FrameBuffer(4, 4, WIN)
        with pytest.raises(RasterError):
            rasterize_quads_exact(fb, np.zeros((1, 3, 2)), np.zeros((1, 3, 2)), np.zeros(1))
        with pytest.raises(RasterError):
            rasterize_quads_exact(fb, unit_quad(0, 1, 0, 1), UV, np.zeros(2))
        with pytest.raises(RasterError):
            rasterize_quads_exact(fb, unit_quad(0, 1, 0, 1), np.zeros((1, 4, 3)), np.zeros(1))
