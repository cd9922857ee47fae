"""Bit-equivalence of the batched rasteriser against the reference loop.

The batched renderer's contract is not "close": into a cleared frame
buffer it must produce *bitwise identical* pixels to
:func:`repro.raster.rasterize.rasterize_quads_exact` — same edge-function
arithmetic, same winding normalisation, same inclusive/exclusive shared
diagonal, same accumulation order.  These tests drive both renderers over
the geometry zoo (overlapping quads, reversed windings, degenerate and
sliver quads, bowties, huge quads spanning pow2 buckets, real bent-spot
meshes) and assert exact array equality plus identical coverage counts.
"""

import numpy as np
import pytest

from repro.errors import RasterError
from repro.fields.analytic import random_smooth_field
from repro.raster.batched import rasterize_quads_batched
from repro.raster.framebuffer import FrameBuffer
from repro.raster.rasterize import rasterize_quads_exact
from repro.raster.texture import Texture
from repro.spots.functions import get_profile


TEXTURE = Texture(get_profile("gaussian").make_texture(32))
UNIT_UV = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def both(quads, uvs, inten, texture=TEXTURE, size=96, window=(0.0, 1.0, 0.0, 1.0), **kw):
    fb_ref = FrameBuffer(size, size, window)
    fb_bat = FrameBuffer(size, size, window)
    n_ref = rasterize_quads_exact(fb_ref, quads, uvs, inten, texture)
    n_bat = rasterize_quads_batched(fb_bat, quads, uvs, inten, texture, **kw)
    return fb_ref, fb_bat, n_ref, n_bat


def random_quads(n, seed, scale=0.05, jitter=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 1, (n, 2))
    base = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float) * scale
    quads = centers[:, None, :] + base + rng.uniform(-scale, scale, (n, 4, 2)) * jitter
    uvs = np.broadcast_to(UNIT_UV, (n, 4, 2)).copy()
    inten = rng.uniform(-1.0, 1.0, n)
    return quads, uvs, inten


class TestBitEquivalence:
    @pytest.mark.parametrize("textured", [True, False])
    def test_random_overlapping_quads(self, textured):
        quads, uvs, inten = random_quads(400, seed=1)
        ref, bat, n_ref, n_bat = both(quads, uvs, inten, TEXTURE if textured else None)
        assert n_ref == n_bat
        np.testing.assert_array_equal(bat.data, ref.data)

    def test_mixed_windings(self):
        quads, uvs, inten = random_quads(200, seed=2)
        quads[::3] = quads[::3][:, ::-1]  # reverse every third quad
        ref, bat, n_ref, n_bat = both(quads, uvs, inten)
        assert n_ref == n_bat
        np.testing.assert_array_equal(bat.data, ref.data)

    def test_degenerate_sliver_and_bowtie_quads(self):
        quads, uvs, inten = random_quads(60, seed=3)
        quads[0] = quads[0][[0, 0, 0, 0]]      # fully collapsed
        quads[1, 2] = quads[1, 1]              # first triangle degenerate
        quads[2, 0] = quads[2, 3]              # second triangle degenerate
        quads[3] = quads[3][[0, 2, 1, 3]]      # bowtie: opposite windings
        ref, bat, n_ref, n_bat = both(quads, uvs, inten)
        assert n_ref == n_bat
        np.testing.assert_array_equal(bat.data, ref.data)

    def test_shared_diagonal_covered_once(self):
        # An axis-aligned square whose v0-v2 diagonal passes exactly
        # through pixel centres: the complementary inclusive/exclusive
        # rule must count every diagonal pixel exactly once in both
        # renderers (flat intensity makes double-coverage visible).
        quad = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
        uv = np.array([UNIT_UV])
        inten = np.array([1.0])
        ref, bat, n_ref, n_bat = both(quad, uv, inten, texture=None, size=16)
        assert n_ref == n_bat == 16 * 16
        np.testing.assert_array_equal(bat.data, ref.data)
        np.testing.assert_array_equal(ref.data, np.ones((16, 16)))

    def test_huge_quads_use_pow2_buckets(self):
        quads, uvs, inten = random_quads(40, seed=4)
        quads[5] = quads[5] * 30.0 - 5.0       # spans the frame buffer
        quads[6] = quads[6] * 8.0 - 2.0
        ref, bat, n_ref, n_bat = both(quads, uvs, inten)
        assert n_ref == n_bat
        np.testing.assert_array_equal(bat.data, ref.data)

    def test_partially_offscreen_quads(self):
        quads, uvs, inten = random_quads(150, seed=5)
        quads += np.array([0.6, -0.4])         # many bboxes clip to the border
        ref, bat, n_ref, n_bat = both(quads, uvs, inten)
        assert n_ref == n_bat
        np.testing.assert_array_equal(bat.data, ref.data)

    def test_bent_mesh_quads(self):
        from repro.advection.particles import ParticleSet
        from repro.core.config import BentConfig, SpotNoiseConfig
        from repro.parallel.groups import build_spot_geometry

        field = random_smooth_field(seed=21, n=33)
        cfg = SpotNoiseConfig(
            n_spots=80,
            texture_size=64,
            spot_mode="bent",
            bent=BentConfig(n_along=6, n_across=4, length_cells=3.0, width_cells=1.0),
            seed=9,
        )
        ps = ParticleSet.uniform_random(80, field.grid.bounds, seed=9)
        quads, uvs, qps = build_spot_geometry(ps.positions, field, cfg)
        inten = np.repeat(ps.intensities, qps)
        ref, bat, n_ref, n_bat = both(
            quads, uvs, inten, size=64, window=field.grid.bounds
        )
        assert n_ref == n_bat
        np.testing.assert_array_equal(bat.data, ref.data)

    def test_chunking_is_invisible(self):
        quads, uvs, inten = random_quads(300, seed=6)
        ref, bat, n_ref, n_bat = both(quads, uvs, inten, chunk_px=64)
        assert n_ref == n_bat
        np.testing.assert_array_equal(bat.data, ref.data)


def spot_geometry(field, n_spots, size, seed):
    """The textured quads one pipe draws for *n_spots* standard spots."""
    from repro.advection.particles import ParticleSet
    from repro.core.config import SpotNoiseConfig
    from repro.parallel.groups import build_spot_geometry

    cfg = SpotNoiseConfig(n_spots=n_spots, texture_size=size, seed=seed)
    ps = ParticleSet.uniform_random(n_spots, field.grid.bounds, seed=seed)
    quads, uvs, _ = build_spot_geometry(ps.positions, field, cfg)
    return quads, uvs, ps.intensities


def smog_wind():
    from repro.apps.smog.steering import SteeredSmogApplication

    wind, _ = SteeredSmogApplication(seed=1997).advance()
    return wind


def dns_wake():
    from repro.apps.dns.solver import DNSConfig, DNSSolver
    from repro.fields.grid import RectilinearGrid
    from repro.fields.vectorfield import VectorField2D

    solver = DNSSolver(DNSConfig(nx=70, ny=52, seed=1))
    solver.advance_to(0.1)
    grid = RectilinearGrid(solver.grid.x_coords(), solver.grid.y_coords())
    return VectorField2D(grid, solver.field().data)


def fleet_frame():
    from repro.cluster.fleet import analytic_source

    return analytic_source(seed=1)(3)


class TestFoldedBuckets:
    """One bucket per box size holds all four winding combinations; the
    strict diagonal is chosen per quad."""

    def test_all_windings_in_one_bucket_with_diagonals_on_pixel_centres(self):
        # Pixel units (window == raster), corners on half-integers: every
        # quad's v0-v2 diagonal runs exactly through pixel centres, and
        # every bounding box has the same size.  Flat intensity makes a
        # diagonal pixel covered twice (or never) visible.
        shapes = [
            [(0, 0), (4, 0), (4, 4), (0, 4)],   # both triangles CCW
            [(0, 0), (0, 4), (4, 4), (4, 0)],   # both CW
            [(0, 0), (4, 0), (4, 4), (3, 1)],   # second triangle flipped
            [(0, 0), (1, 3), (4, 4), (0, 4)],   # first triangle flipped
        ]
        rng = np.random.default_rng(17)
        quads = np.array([
            np.array(shapes[k % 4], dtype=float) + rng.integers(0, 27, 2) + 0.5
            for k in range(48)
        ])
        uvs = np.broadcast_to(UNIT_UV, quads.shape).copy()
        inten = rng.uniform(0.5, 1.5, len(quads))
        window = (0.0, 32.0, 0.0, 32.0)
        for texture in (None, TEXTURE):
            ref, bat, n_ref, n_bat = both(
                quads, uvs, inten, texture=texture, size=32, window=window
            )
            assert n_ref == n_bat
            np.testing.assert_array_equal(bat.data, ref.data)
        # A lone convex square covers the 5x5 pixel centres on and inside
        # its boundary exactly once each, its diagonal included.
        for quad in quads[:2]:
            ref, bat, n_ref, n_bat = both(
                quad[None], uvs[:1], np.ones(1), texture=None, size=32, window=window
            )
            assert n_bat == 25
            assert set(np.unique(bat.data)) == {0.0, 1.0}


class TestBenchmarkedGeometries:
    """Bit-identity on the spot quads of the benchmarked workloads."""

    @pytest.mark.parametrize(
        "make_field,n_spots,size",
        [(smog_wind, 2500, 128), (dns_wake, 500, 64), (fleet_frame, 300, 48)],
        ids=["smog-2500-128", "dns-500-64", "analytic-300-48"],
    )
    def test_standard_spots(self, make_field, n_spots, size):
        field = make_field()
        quads, uvs, inten = spot_geometry(field, n_spots, size, seed=1)
        ref, bat, n_ref, n_bat = both(
            quads, uvs, inten, size=size, window=field.grid.bounds
        )
        assert n_ref == n_bat > 0
        np.testing.assert_array_equal(bat.data, ref.data)

    def test_bucket_split_across_passes(self):
        # Translated copies of one quad share one bucket; a chunk of a few
        # quads' grids splits it over many passes, and the deferred
        # texture pass over the deposits runs in chunks of the same size.
        rng = np.random.default_rng(5)
        base = np.array([[0.0, 0.0], [0.09, 0.02], [0.1, 0.1], [0.01, 0.08]])
        quads = base + rng.uniform(0.0, 0.85, (200, 1, 2))
        uvs = np.broadcast_to(UNIT_UV, quads.shape).copy()
        inten = rng.uniform(-1.0, 1.0, 200)
        ref, bat, n_ref, n_bat = both(quads, uvs, inten, size=96, chunk_px=400)
        assert n_ref == n_bat > 400
        np.testing.assert_array_equal(bat.data, ref.data)


class TestBatchedBehaviour:
    def test_empty_batch(self):
        fb = FrameBuffer(32, 32, (0, 1, 0, 1))
        n = rasterize_quads_batched(
            fb, np.zeros((0, 4, 2)), np.zeros((0, 4, 2)), np.zeros(0), TEXTURE
        )
        assert n == 0
        assert fb.data.sum() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_quads_dropped(self, bad):
        # The reference loop cannot digest non-finite vertices; the batch
        # renderer drops those quads and renders the rest normally.  An
        # infinite vertex is the sneaky case: it can make a triangle's
        # area +inf, which must not survive the validity filter.
        quads, uvs, inten = random_quads(30, seed=7)
        good_ref, _, _, _ = both(quads[1:], uvs[1:], inten[1:])
        quads[0, 1, 0] = bad
        fb = FrameBuffer(96, 96, (0, 1, 0, 1))
        rasterize_quads_batched(fb, quads, uvs, inten, TEXTURE)
        np.testing.assert_array_equal(fb.data, good_ref.data)

    def test_inf_vertex_fuzz_never_crashes(self):
        # Regression: inf-vertex quads used to pass the area filter with
        # area = +inf and crash on NaN barycentric weights.
        rng = np.random.default_rng(11)
        quads, uvs, inten = random_quads(300, seed=11)
        corners = rng.integers(0, 4, 300)
        axes = rng.integers(0, 2, 300)
        signs = rng.choice([-np.inf, np.inf], 300)
        hit = rng.random(300) < 0.5
        quads[hit, corners[hit], axes[hit]] = signs[hit]
        fb = FrameBuffer(96, 96, (0, 1, 0, 1))
        rasterize_quads_batched(fb, quads, uvs, inten, TEXTURE)
        assert np.isfinite(fb.data).all()

    def test_validation_errors(self):
        fb = FrameBuffer(32, 32, (0, 1, 0, 1))
        with pytest.raises(RasterError):
            rasterize_quads_batched(fb, np.zeros((2, 3, 2)), np.zeros((2, 3, 2)), np.zeros(2))
        with pytest.raises(RasterError):
            rasterize_quads_batched(fb, np.zeros((2, 4, 2)), np.zeros((3, 4, 2)), np.zeros(2))
        with pytest.raises(RasterError):
            rasterize_quads_batched(fb, np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), np.zeros(3))
        with pytest.raises(RasterError):
            rasterize_quads_batched(
                fb, np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), np.zeros(2), chunk_px=0
            )

    def test_additivity_on_prefilled_buffer(self):
        # Drawing onto an already-filled buffer stays an additive blend
        # (rounding may differ from the reference at the last ulp, which
        # is why the bitwise guarantee is stated for cleared buffers).
        quads, uvs, inten = random_quads(50, seed=8)
        fb = FrameBuffer(96, 96, (0, 1, 0, 1))
        fb.data[...] = 1.0
        rasterize_quads_batched(fb, quads, uvs, inten, TEXTURE)
        fb2 = FrameBuffer(96, 96, (0, 1, 0, 1))
        rasterize_quads_batched(fb2, quads, uvs, inten, TEXTURE)
        np.testing.assert_allclose(fb.data, fb2.data + 1.0, rtol=0, atol=1e-12)
