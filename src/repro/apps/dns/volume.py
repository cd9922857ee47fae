"""Space-time volumes: treating the stored time series as a 3-D data set.

The paper browses "a slice from the three dimensional data set".  For a
2-D time series the natural 3-D object is the space-time volume
``(t, y, x)``: a z-slice is one time step (what the browser plays), a
y- or x-slice is a *time line* — the evolution of one spatial line,
which is how vortex-shedding periodicity becomes visible as stripes.
"""

from __future__ import annotations

import numpy as np

from repro.apps.dns.store import ChunkedFieldStore
from repro.errors import ApplicationError
from repro.fields.slices import Dataset3D, SliceSpec
from repro.fields.vectorfield import VectorField2D


def space_time_volume(
    store: ChunkedFieldStore,
    start: int = 0,
    stop: "int | None" = None,
    stride: int = 1,
) -> Dataset3D:
    """Stack stored frames into a ``(nt, ny, nx, 3)`` volume.

    The in-plane components are the stored ``(u, v)``; the out-of-plane
    component is zero (a 2-D data set has no w), so z-slices reproduce the
    stored fields exactly and x/y slices show ``(u or v)`` against time.
    The time axis is mapped to the volume's z extent using the stored
    frame times.
    """
    stop = len(store) if stop is None else min(stop, len(store))
    frames = list(range(start, stop, stride))
    if len(frames) < 2:
        raise ApplicationError("need at least 2 frames for a space-time volume")
    ny, nx = store.grid.shape
    data = np.zeros((len(frames), ny, nx, 3), dtype=np.float64)
    for k, t in enumerate(frames):
        data[k, :, :, :2] = store.read(t).data
    x0, x1, y0, y1 = store.grid.bounds
    t_lo = store.times[frames[0]]
    t_hi = store.times[frames[-1]]
    if not t_hi > t_lo:
        t_lo, t_hi = 0.0, float(len(frames) - 1)
    return Dataset3D(data, bounds=(x0, x1, y0, y1, t_lo, t_hi))


class SliceBrowser:
    """Navigate axis-aligned slices of a 3-D data set.

    Mirrors the 2-D browser's workflow: pick an axis, scrub the index,
    get a :class:`VectorField2D` ready for the spot noise pipeline.
    """

    def __init__(self, volume: Dataset3D, axis: str = "z", index: int = 0):
        self.volume = volume
        self._spec = SliceSpec(axis, index)  # validates axis/index >= 0
        if index >= volume.axis_size(axis):  # and the upper bound
            raise ApplicationError(
                f"index {index} out of range for axis {axis!r} "
                f"(size {volume.axis_size(axis)})"
            )

    @property
    def axis(self) -> str:
        return self._spec.axis

    @property
    def index(self) -> int:
        return self._spec.index

    def step(self, delta: int = 1) -> int:
        """Move the slice index by *delta* with wraparound; returns new index."""
        size = self.volume.axis_size(self.axis)
        self._spec = SliceSpec(self.axis, (self.index + delta) % size)
        return self.index

    def current(self) -> VectorField2D:
        return self.volume.slice(self._spec)
