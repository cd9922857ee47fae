"""2-D scalar fields (pollutant concentration, vorticity, pressure...)."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.errors import FieldError
from repro.fields.grid import RegularGrid, RectilinearGrid, _as_points
from repro.fields.sampling import _prepare_indices, bilinear_sample, check_boundary_mode, BoundaryMode

Grid = Union[RegularGrid, RectilinearGrid]


class ScalarField2D:
    """A sampled scalar field on a structured grid.

    Figure 6 of the paper superimposes the pollutant O3 concentration (a
    scalar field) on the wind-field texture; this class carries such data
    through the overlay stage.
    """

    def __init__(self, grid: Grid, data: np.ndarray, boundary: BoundaryMode = "clamp"):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != grid.shape:
            raise FieldError(f"scalar data must have grid shape {grid.shape}, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise FieldError("scalar data contains non-finite values")
        self.grid = grid
        self.data = data
        self.boundary: BoundaryMode = check_boundary_mode(boundary)

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField2D":
        return cls(grid, np.zeros(grid.shape))

    def sample(self, points: np.ndarray, boundary: Optional[BoundaryMode] = None) -> np.ndarray:
        """Bilinear sample at world points ``(N, 2) -> (N,)``."""
        pts = _as_points(points)
        fx, fy = self.grid.world_to_fractional(pts)
        return bilinear_sample(self.data, fx, fy, boundary or self.boundary)

    def min(self) -> float:
        return float(self.data.min())

    def max(self) -> float:
        return float(self.data.max())

    def normalized(self, eps: float = 1e-12) -> "ScalarField2D":
        """Affinely rescale values into [0, 1] (constant fields map to 0)."""
        lo, hi = self.data.min(), self.data.max()
        if hi - lo < eps:
            return ScalarField2D(self.grid, np.zeros_like(self.data), self.boundary)
        return ScalarField2D(self.grid, (self.data - lo) / (hi - lo), self.boundary)

    def resampled_to(self, texture_shape: "tuple[int, int]") -> np.ndarray:
        """Resample onto a pixel raster covering the grid bounds.

        Returns a ``(height, width)`` array — the form consumed by the
        overlay compositor when draping the scalar over the texture.
        Pixel ``(i, j)`` is :func:`bilinear_sample` at ``(xs[j], ys[i])``
        bit for bit, computed separably: fractional indices per column and
        per row, the x blend once per grid row, then two row gathers.
        """
        h, w = texture_shape
        if h < 1 or w < 1:
            raise FieldError(f"invalid raster shape {texture_shape}")
        mode = self.boundary
        x0, x1, y0, y1 = self.grid.bounds
        xs, ys = np.linspace(x0, x1, w), np.linspace(y0, y1, h)
        fx = self.grid.world_to_fractional(np.stack([xs, np.full(w, y0)], axis=-1))[0]
        fy = self.grid.world_to_fractional(np.stack([np.full(h, x0), ys], axis=-1))[1]
        jx0, jx1, tx, in_x = _prepare_indices(fx, self.grid.nx, mode, mode == "zero")
        jy0, jy1, ty, in_y = _prepare_indices(fy, self.grid.ny, mode, mode == "zero")
        rows = self.data[:, jx0] * (1.0 - tx) + self.data[:, jx1] * tx
        out = rows[jy0] * (1.0 - ty[:, None]) + rows[jy1] * ty[:, None]
        if mode == "zero":
            out = np.where(~(in_y[:, None] & in_x), 0.0, out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScalarField2D(shape={self.grid.shape}, range=[{self.min():.3g}, {self.max():.3g}])"
