"""Tests for the space-time volume and slice browser (repro.apps.dns.volume)."""

import numpy as np
import pytest

from repro.apps.dns.store import ChunkedFieldStore
from repro.apps.dns.volume import SliceBrowser, space_time_volume
from repro.errors import ApplicationError
from repro.fields.grid import RectilinearGrid
from repro.fields.vectorfield import VectorField2D


@pytest.fixture
def store(tmp_path):
    grid = RectilinearGrid(np.linspace(0, 4, 12), np.linspace(0, 3, 9))
    st = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=3)
    for i in range(6):
        data = np.zeros((*grid.shape, 2))
        data[..., 0] = float(i)          # u encodes the frame index
        data[..., 1] = -float(i)
        st.append(VectorField2D(grid, data), time=0.5 * i)
    st.flush()
    return st


class TestSpaceTimeVolume:
    def test_shape_and_bounds(self, store):
        vol = space_time_volume(store)
        assert vol.shape == (6, 9, 12)
        x0, x1, y0, y1, t0, t1 = vol.bounds
        assert (x0, x1, y0, y1) == pytest.approx((0.0, 4.0, 0.0, 3.0))
        assert (t0, t1) == pytest.approx((0.0, 2.5))

    def test_z_slice_reproduces_stored_frame(self, store):
        vol = space_time_volume(store)
        from repro.fields.slices import SliceSpec

        f = vol.slice(SliceSpec("z", 4))
        np.testing.assert_allclose(f.u, 4.0)
        np.testing.assert_allclose(f.v, -4.0)

    def test_y_slice_shows_time_evolution(self, store):
        vol = space_time_volume(store)
        from repro.fields.slices import SliceSpec

        # Plane axes (x, t): the second in-plane component is w = 0, and
        # u varies along the slice's row (time) axis.
        f = vol.slice(SliceSpec("y", 2))
        assert f.grid.shape == (6, 12)  # (nt, nx)
        np.testing.assert_allclose(f.u[:, 0], np.arange(6, dtype=float))

    def test_stride_and_range(self, store):
        vol = space_time_volume(store, start=1, stop=6, stride=2)
        assert vol.shape[0] == 3

    def test_too_few_frames(self, store):
        with pytest.raises(ApplicationError):
            space_time_volume(store, start=0, stop=1)


class TestSliceBrowser:
    def test_navigation(self, store):
        vol = space_time_volume(store)
        browser = SliceBrowser(vol, axis="z", index=0)
        assert browser.current().u[0, 0] == 0.0
        browser.step(2)
        assert browser.current().u[0, 0] == 2.0
        browser.step(-3)  # wraparound
        assert browser.index == 5

    def test_bad_initial_index(self, store):
        vol = space_time_volume(store)
        with pytest.raises(ApplicationError):
            SliceBrowser(vol, axis="z", index=6)
