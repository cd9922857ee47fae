"""2-D structured grids.

Two grid types are provided, matching the two applications in the paper:

* :class:`RegularGrid` — uniform spacing (the 53x55 atmospheric grid);
* :class:`RectilinearGrid` — per-axis monotone coordinate arrays (the
  278x208 DNS grid, which clusters cells near the block).

Conventions
-----------
Field data arrays are indexed ``[iy, ix]`` (row = y, column = x) so that
``data.shape == (ny, nx)``.  World coordinates are ``(x, y)`` pairs with x
increasing along columns and y along rows.  Point arrays are ``(N, 2)``
float arrays of world coordinates.

The central operation is :meth:`world_to_fractional`, which converts world
points into fractional grid indices ``(fx, fy)`` used by the bilinear
sampler in :mod:`repro.fields.sampling`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GridError


def _as_points(points: np.ndarray) -> np.ndarray:
    """Normalise *points* to an (N, 2) float64 array (accepts a single pair)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        if pts.shape[0] != 2:
            raise GridError(f"a point must have 2 coordinates, got shape {pts.shape}")
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GridError(f"points must have shape (N, 2), got {pts.shape}")
    return pts


class RegularGrid:
    """Uniformly spaced 2-D grid over the rectangle ``[x0,x1] x [y0,y1]``.

    Parameters
    ----------
    nx, ny:
        Number of grid *nodes* along x and y (>= 2 each).
    bounds:
        ``(x0, x1, y0, y1)`` world extent of the node lattice.
    """

    def __init__(self, nx: int, ny: int, bounds: Tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)):
        if nx < 2 or ny < 2:
            raise GridError(f"grid needs at least 2 nodes per axis, got nx={nx}, ny={ny}")
        x0, x1, y0, y1 = (float(b) for b in bounds)
        if not (x1 > x0 and y1 > y0):
            raise GridError(f"degenerate bounds {bounds}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.dx = (x1 - x0) / (nx - 1)
        self.dy = (y1 - y0) / (ny - 1)

    # -- basic geometry ----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Data array shape ``(ny, nx)``."""
        return (self.ny, self.nx)

    @property
    def bounds(self) -> Tuple[float, float, float, float]:
        return (self.x0, self.x1, self.y0, self.y1)

    @property
    def extent(self) -> Tuple[float, float]:
        """(width, height) of the domain in world units."""
        return (self.x1 - self.x0, self.y1 - self.y0)

    def x_coords(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def y_coords(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def mesh(self) -> Tuple[np.ndarray, np.ndarray]:
        """(X, Y) node coordinate arrays of shape ``(ny, nx)``."""
        return np.meshgrid(self.x_coords(), self.y_coords())

    # -- point <-> index mapping -------------------------------------------
    def world_to_fractional(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map world points to fractional indices ``(fx, fy)``.

        ``fx`` in ``[0, nx-1]`` corresponds to ``x`` in ``[x0, x1]``; values
        outside the domain map outside that range (the sampler decides the
        boundary policy).
        """
        pts = _as_points(points)
        fx = (pts[:, 0] - self.x0) / self.dx
        fy = (pts[:, 1] - self.y0) / self.dy
        return fx, fy

    def fractional_to_world(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        fx = np.asarray(fx, dtype=np.float64)
        fy = np.asarray(fy, dtype=np.float64)
        return np.stack([self.x0 + fx * self.dx, self.y0 + fy * self.dy], axis=-1)

    def min_spacing(self) -> float:
        """Smallest node spacing; used to pick advection step sizes."""
        return min(self.dx, self.dy)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegularGrid(nx={self.nx}, ny={self.ny}, bounds={self.bounds})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegularGrid):
            return NotImplemented
        return (self.nx, self.ny, self.bounds) == (other.nx, other.ny, other.bounds)

    def __hash__(self) -> int:
        return hash((self.nx, self.ny, self.bounds))


class RectilinearGrid:
    """Tensor-product grid with per-axis monotone node coordinates.

    The DNS data of section 5.2 lives on such a grid: cells are refined near
    the block and stretched far from it.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1:
            raise GridError("coordinate arrays must be 1-D")
        if x.size < 2 or y.size < 2:
            raise GridError("grid needs at least 2 nodes per axis")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise GridError("coordinate arrays must be strictly increasing")
        self.x = x
        self.y = y
        self.nx = x.size
        self.ny = y.size

    # -- basic geometry ----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def bounds(self) -> Tuple[float, float, float, float]:
        return (float(self.x[0]), float(self.x[-1]), float(self.y[0]), float(self.y[-1]))

    def x_coords(self) -> np.ndarray:
        return self.x

    def y_coords(self) -> np.ndarray:
        return self.y

    def mesh(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.y)

    # -- point <-> index mapping -------------------------------------------
    def world_to_fractional(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fractional indices via binary search over the coordinate arrays."""
        pts = _as_points(points)

        def frac(coords: np.ndarray, vals: np.ndarray) -> np.ndarray:
            idx = np.clip(np.searchsorted(coords, vals, side="right") - 1, 0, coords.size - 2)
            lo = coords[idx]
            hi = coords[idx + 1]
            return idx + (vals - lo) / (hi - lo)

        return frac(self.x, pts[:, 0]), frac(self.y, pts[:, 1])

    def min_spacing(self) -> float:
        return float(min(np.diff(self.x).min(), np.diff(self.y).min()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RectilinearGrid(nx={self.nx}, ny={self.ny}, bounds={self.bounds})"
