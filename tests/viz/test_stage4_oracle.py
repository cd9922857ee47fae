"""Stage 4 (render scene) against the reference arithmetic it replaced.

The oracle below is the straightforward form of each stage-4 primitive:
the scalar resample samples every pixel of a meshgrid through
``bilinear_sample``, the colormap gathers ``(..., 3)`` control rows, and
the drape builds a grayscale base image and blends the colour over it.
The library computes the same operands with the same floating-point
operations per element, laid out per axis or per channel, so every
comparison here is ``np.array_equal``, never a tolerance.
"""

import numpy as np
import pytest

from repro.apps.smog.steering import SteeredSmogApplication
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.fields.grid import RegularGrid
from repro.fields.sampling import bilinear_sample
from repro.fields.scalarfield import ScalarField2D
from repro.spots.filtering import contrast_stretch, highpass_texture, histogram_equalize
from repro.viz.colormap import Colormap, diverging, grayscale, rainbow
from repro.viz.overlay import compose_scene, mask_overlay

from oracles import scalar_from_function, stretched_grid

GRAY = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


# -- the oracle ---------------------------------------------------------------


def oracle_colormap(controls, values):
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    k = controls.shape[0]
    x = v * (k - 1)
    i0 = np.minimum(x.astype(np.int64), k - 2)
    t = (x - i0)[..., None]
    return controls[i0] * (1.0 - t) + controls[i0 + 1] * t


def oracle_resample(scalar, shape):
    h, w = shape
    x0, x1, y0, y1 = scalar.grid.bounds
    X, Y = np.meshgrid(np.linspace(x0, x1, w), np.linspace(y0, y1, h))
    fx, fy = scalar.grid.world_to_fractional(np.stack([X.ravel(), Y.ravel()], axis=-1))
    return bilinear_sample(scalar.data, fx, fy, scalar.boundary).reshape(h, w)


def oracle_blend_over(dst, src, alpha):
    return src * alpha + dst * (1.0 - alpha)


def oracle_overlay(texture01, scalar01, controls, max_alpha=0.65):
    tex = np.clip(texture01, 0.0, 1.0)
    sca = np.clip(scalar01, 0.0, 1.0)
    base = oracle_colormap(GRAY, tex)
    colour = oracle_colormap(controls, sca)
    return oracle_blend_over(base, colour, (sca * max_alpha)[..., None])


def oracle_compose(texture01, scalar01, controls, mask=None, max_alpha=0.65):
    if scalar01 is not None:
        rgb = oracle_overlay(texture01, scalar01, controls, max_alpha)
    else:
        rgb = oracle_colormap(GRAY, np.clip(texture01, 0.0, 1.0))
    return rgb if mask is None else mask_overlay(rgb, mask)


def oracle_render(config, texture, scalar, mask=None):
    """``SpotNoisePipeline.render`` with the oracle's resample and drape."""
    if config.post_filter == "highpass":
        display = contrast_stretch(highpass_texture(texture))
    elif config.post_filter == "equalize":
        display = histogram_equalize(texture)
    else:
        display = contrast_stretch(texture)
    size = config.texture_size
    scalar01 = oracle_resample(scalar.normalized(), (size, size))
    return display, oracle_compose(display, scalar01, rainbow().controls, mask)


# -- scalars, colormaps and values --------------------------------------------


def regular_scalar(boundary):
    # The steering application's 53x55 slice.
    grid = RegularGrid(53, 55, (0.0, 53.0, 0.0, 55.0))
    return scalar_from_function(
        grid, lambda x, y: np.sin(0.3 * x) * np.cos(0.2 * y) + 0.01 * x * y, boundary
    )


def rectilinear_scalar(boundary):
    grid = stretched_grid(41, 29, (-2.0, 6.0, -1.5, 1.5), focus=(0.3, 0.5), strength=2.5)
    return scalar_from_function(grid, lambda x, y: np.exp(-((x - 1.0) ** 2) - 2.0 * y * y), boundary)


def edge_scalar(boundary):
    # (3.3 - 1.1) / dx lands one ulp past index 7, so the raster's last
    # column lies just outside the grid: the "zero" mode blanks it.
    grid = RegularGrid(8, 6, (1.1, 3.3, 0.0, 1.0))
    return scalar_from_function(grid, lambda x, y: 1.0 + x * x - y, boundary)


def constant_scalar(boundary):
    return ScalarField2D(RegularGrid(9, 7, (0.0, 3.0, 0.0, 2.0)), np.full((7, 9), 0.37), boundary)


def colormaps():
    five = np.random.default_rng(5).uniform(size=(5, 3))
    return [grayscale(), diverging(), rainbow(), Colormap("random5", five)]


def values_zoo(k, shape=(24, 40)):
    """Random values past both ends of [0, 1], every control point, both ends exactly."""
    rng = np.random.default_rng(k)
    v = rng.uniform(-0.25, 1.25, size=shape)
    knots = np.arange(k) / (k - 1)
    special = np.concatenate(
        [[-0.0, 1.0, -7.0, 7.0], knots, np.nextafter(knots, 2.0), np.nextafter(knots, -1.0)]
    )
    n = min(special.size, v.size)
    v.reshape(-1)[:n] = special[:n]
    return v


# -- primitives ---------------------------------------------------------------


@pytest.mark.parametrize("make", [regular_scalar, rectilinear_scalar, edge_scalar, constant_scalar])
@pytest.mark.parametrize("boundary", ["clamp", "wrap", "zero"])
@pytest.mark.parametrize("shape", [(16, 32), (128, 128), (1, 5)])
def test_resample_matches_oracle(make, boundary, shape):
    scalar = make(boundary)
    for field in (scalar, scalar.normalized()):
        got = field.resampled_to(shape)
        assert got.shape == shape
        assert np.array_equal(got, oracle_resample(field, shape))
    if make is edge_scalar and boundary == "zero":
        assert (scalar.resampled_to(shape)[:, -1] == 0.0).all()


@pytest.mark.parametrize("cmap", colormaps(), ids=lambda c: c.name)
def test_colormap_matches_oracle(cmap):
    k = cmap.controls.shape[0]
    for values in (values_zoo(k), values_zoo(k, (1, 5)), values_zoo(k).ravel(), np.float64(0.3)):
        got = cmap(values)
        want = oracle_colormap(cmap.controls, values)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous


@pytest.mark.parametrize("cmap", colormaps(), ids=lambda c: c.name)
@pytest.mark.parametrize("max_alpha", [0.0, 0.65, 1.0])
def test_overlay_matches_oracle(cmap, max_alpha):
    k = cmap.controls.shape[0]
    tex = values_zoo(k + 1)
    sca = values_zoo(k)
    got = compose_scene(tex, sca, cmap, max_alpha=max_alpha)
    assert np.array_equal(got, oracle_overlay(tex, sca, cmap.controls, max_alpha))
    assert got.flags.c_contiguous


@pytest.mark.parametrize("with_scalar", [False, True])
@pytest.mark.parametrize("with_mask", [False, True])
def test_compose_matches_oracle(with_scalar, with_mask):
    tex = values_zoo(3, (16, 32))
    sca = values_zoo(5, (16, 32)) if with_scalar else None
    mask = (np.add.outer(np.arange(16), np.arange(32)) % 7 < 3) if with_mask else None
    got = compose_scene(tex, sca, rainbow(), mask)
    assert np.array_equal(got, oracle_compose(tex, sca, rainbow().controls, mask))


# -- the pipeline's stage 4 ---------------------------------------------------


@pytest.mark.parametrize("post_filter", ["none", "highpass", "equalize"])
@pytest.mark.parametrize("with_mask", [False, True])
def test_pipeline_render_matches_oracle(post_filter, with_mask):
    app = SteeredSmogApplication(seed=1997)
    wind, o3 = app.advance()
    config = SpotNoiseConfig(n_spots=300, texture_size=32, backend="serial", seed=3, post_filter=post_filter)
    mask = (np.add.outer(np.arange(32), np.arange(32)) % 5 == 0) if with_mask else None
    with SpotNoisePipeline(config, wind) as pipe:
        result = pipe.step(wind, scalar=o3, mask=mask)
    display, image = oracle_render(config, result.texture, o3, mask)
    assert np.array_equal(result.display, display)
    assert np.array_equal(result.image, image)


def test_steer_frames_match_oracle():
    """``steer``'s own setup: winds of the 1997 world, 2500 spots at 128²."""
    app = SteeredSmogApplication(seed=1997)
    wind, o3 = app.advance()
    config = SpotNoiseConfig(n_spots=2500, texture_size=128, backend="auto", seed=1)
    with SpotNoisePipeline(config, wind) as pipe:
        for _ in range(6):
            result = pipe.step(wind, scalar=o3)
            display, image = oracle_render(config, result.texture, o3)
            assert np.array_equal(result.display, display)
            assert np.array_equal(result.image, image)
            wind, o3 = app.advance()
