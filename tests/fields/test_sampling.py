"""Tests for repro.fields.sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.fields.grid import RegularGrid
from repro.fields.sampling import bilinear_sample, nearest_sample
from repro.fields.scalarfield import ScalarField2D


def ramp(ny=5, nx=7):
    """data[iy, ix] = ix + 10*iy — bilinear interpolation is exact on it."""
    return np.arange(nx)[None, :] + 10.0 * np.arange(ny)[:, None]


class TestBilinearSample:
    def test_exact_at_nodes(self):
        data = ramp()
        fx = np.array([0.0, 3.0, 6.0])
        fy = np.array([0.0, 2.0, 4.0])
        np.testing.assert_allclose(bilinear_sample(data, fx, fy), [0.0, 23.0, 46.0])

    def test_linear_in_between(self):
        data = ramp()
        out = bilinear_sample(data, np.array([1.5]), np.array([2.5]))
        assert out[0] == pytest.approx(1.5 + 25.0)

    def test_vector_data(self):
        data = np.stack([ramp(), -ramp()], axis=-1)
        out = bilinear_sample(data, np.array([2.0]), np.array([1.0]))
        np.testing.assert_allclose(out, [[12.0, -12.0]])

    def test_clamp_mode(self):
        data = ramp()
        out = bilinear_sample(data, np.array([-5.0, 100.0]), np.array([0.0, 0.0]), "clamp")
        np.testing.assert_allclose(out, [0.0, 6.0])

    def test_zero_mode(self):
        data = ramp()
        out = bilinear_sample(data, np.array([-1.0, 3.0]), np.array([0.0, -0.5]), "zero")
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_zero_mode_vector_data(self):
        data = np.stack([ramp(), ramp()], axis=-1)
        out = bilinear_sample(data, np.array([-1.0]), np.array([0.0]), "zero")
        np.testing.assert_allclose(out, [[0.0, 0.0]])

    def test_wrap_mode_periodicity(self):
        data = ramp()
        inside = bilinear_sample(data, np.array([1.0]), np.array([1.0]), "wrap")
        wrapped = bilinear_sample(data, np.array([1.0 + 6.0]), np.array([1.0 + 4.0]), "wrap")
        np.testing.assert_allclose(wrapped, inside)

    def test_unknown_mode(self):
        with pytest.raises(FieldError):
            bilinear_sample(ramp(), np.array([0.0]), np.array([0.0]), "bogus")

    def test_shape_mismatch(self):
        with pytest.raises(FieldError):
            bilinear_sample(ramp(), np.array([0.0, 1.0]), np.array([0.0]))

    def test_too_small_data(self):
        with pytest.raises(FieldError):
            bilinear_sample(np.zeros((1, 5)), np.array([0.0]), np.array([0.0]))

    def test_bad_rank(self):
        with pytest.raises(FieldError):
            bilinear_sample(np.zeros(5), np.array([0.0]), np.array([0.0]))

    @settings(max_examples=30, deadline=None)
    @given(
        fx=st.floats(0.0, 6.0),
        fy=st.floats(0.0, 4.0),
    )
    def test_within_convex_hull_of_neighbours(self, fx, fy):
        rng = np.random.default_rng(0)
        data = rng.uniform(-1, 1, (5, 7))
        out = float(bilinear_sample(data, np.array([fx]), np.array([fy]))[0])
        assert data.min() - 1e-12 <= out <= data.max() + 1e-12

    def test_interpolation_is_exact_on_affine_data(self):
        # property: bilinear reproduces any affine function exactly
        data = 3.0 + 2.0 * np.arange(7)[None, :] - 1.5 * np.arange(5)[:, None]
        rng = np.random.default_rng(1)
        fx = rng.uniform(0, 6, 50)
        fy = rng.uniform(0, 4, 50)
        expected = 3.0 + 2.0 * fx - 1.5 * fy
        np.testing.assert_allclose(bilinear_sample(data, fx, fy), expected, atol=1e-12)

    def test_bad_mode(self):
        with pytest.raises(FieldError, match="unknown boundary mode"):
            bilinear_sample(ramp(), np.array([0.0]), np.array([0.0]), "nope")
        # The constructor rejects the mode; one set afterwards is still
        # caught when the field is sampled.
        with pytest.raises(FieldError, match="unknown boundary mode"):
            ScalarField2D(RegularGrid(7, 5), ramp(), boundary="nope")
        scalar = ScalarField2D(RegularGrid(7, 5), ramp())
        scalar.boundary = "nope"
        with pytest.raises(FieldError, match="unknown boundary mode"):
            scalar.resampled_to((4, 4))


class TestNearestSample:
    def test_picks_nearest_node(self):
        data = ramp()
        out = nearest_sample(data, np.array([1.4, 1.6]), np.array([0.4, 0.6]))
        np.testing.assert_allclose(out, [1.0, 12.0])

    def test_zero_outside(self):
        out = nearest_sample(ramp(), np.array([-2.0]), np.array([0.0]), "zero")
        assert out[0] == 0.0

    def test_bad_mode(self):
        with pytest.raises(FieldError):
            nearest_sample(ramp(), np.array([0.0]), np.array([0.0]), "nope")
