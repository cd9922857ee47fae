"""3-D data sets and 2-D slicing.

Both applications of the paper visualise "a slice from the three
dimensional data set".  :class:`Dataset3D` holds a (possibly large)
``(nz, ny, nx, 3)`` vector volume and :class:`SliceSpec` selects an axis-
aligned plane, producing the in-plane 2-D vector field the spot noise
pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Tuple

import numpy as np

from repro.errors import FieldError
from repro.fields.grid import RegularGrid
from repro.fields.vectorfield import VectorField2D

Axis = Literal["x", "y", "z"]

# For each slicing axis: (index axis in the volume, the two in-plane
# component indices of the 3-vector, the two in-plane coordinate axes).
_AXIS_INFO = {
    "z": (0, (0, 1), ("x", "y")),
    "y": (1, (0, 2), ("x", "z")),
    "x": (2, (1, 2), ("y", "z")),
}


@dataclass(frozen=True)
class SliceSpec:
    """An axis-aligned slice: the plane ``axis = index`` of the volume."""

    axis: Axis
    index: int

    def __post_init__(self) -> None:
        if self.axis not in _AXIS_INFO:
            raise FieldError(f"slice axis must be one of 'x','y','z', got {self.axis!r}")
        if self.index < 0:
            raise FieldError(f"slice index must be >= 0, got {self.index}")


class Dataset3D:
    """A 3-D vector data set on a regular lattice.

    Parameters
    ----------
    data:
        ``(nz, ny, nx, 3)`` array of ``(u, v, w)`` vectors.
    bounds:
        ``(x0, x1, y0, y1, z0, z1)`` world extent.
    """

    def __init__(self, data: np.ndarray, bounds: Tuple[float, ...] = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 4 or data.shape[3] != 3:
            raise FieldError(f"volume must have shape (nz, ny, nx, 3), got {data.shape}")
        if any(s < 2 for s in data.shape[:3]):
            raise FieldError("volume needs at least 2 nodes per axis")
        if len(bounds) != 6:
            raise FieldError(f"bounds must be (x0,x1,y0,y1,z0,z1), got {bounds}")
        self.data = data
        self.bounds = tuple(float(b) for b in bounds)
        self.nz, self.ny, self.nx = data.shape[:3]

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.nz, self.ny, self.nx)

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def axis_size(self, axis: Axis) -> int:
        return {"z": self.nz, "y": self.ny, "x": self.nx}[axis]

    def _plane_bounds(self, axes: Tuple[str, str]) -> Tuple[float, float, float, float]:
        x0, x1, y0, y1, z0, z1 = self.bounds
        per_axis = {"x": (x0, x1), "y": (y0, y1), "z": (z0, z1)}
        (a0, a1), (b0, b1) = per_axis[axes[0]], per_axis[axes[1]]
        return (a0, a1, b0, b1)

    def slice(self, spec: SliceSpec) -> VectorField2D:
        """Extract the in-plane 2-D vector field of an axis-aligned slice.

        The out-of-plane velocity component is dropped: spot noise is a 2-D
        texture technique and visualises the in-plane flow, exactly as the
        paper does for its slices.
        """
        idx_axis, comp, plane_axes = _AXIS_INFO[spec.axis]
        size = self.axis_size(spec.axis)
        if spec.index >= size:
            raise FieldError(f"slice index {spec.index} out of range for axis {spec.axis} (size {size})")
        plane = np.take(self.data, spec.index, axis=idx_axis)
        in_plane = plane[..., list(comp)]
        ny, nx = in_plane.shape[:2]
        grid = RegularGrid(nx, ny, self._plane_bounds(plane_axes))
        return VectorField2D(grid, in_plane)

