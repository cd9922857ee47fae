"""2-D vector fields over structured grids."""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.errors import FieldError
from repro.fields.grid import RegularGrid, RectilinearGrid, _as_points
from repro.fields.sampling import bilinear_sample, check_boundary_mode, BoundaryMode

Grid = Union[RegularGrid, RectilinearGrid]


class VectorField2D:
    """A sampled 2-D vector field ``(u, v)`` on a structured grid.

    Parameters
    ----------
    grid:
        :class:`RegularGrid` or :class:`RectilinearGrid`.
    data:
        ``(ny, nx, 2)`` array; ``data[..., 0]`` is the x-component ``u`` and
        ``data[..., 1]`` the y-component ``v``.
    boundary:
        Default boundary mode used by :meth:`sample`.

    The field object is the unit of exchange between simulation and
    visualisation: the smog model and the DNS solver both emit one of these
    per animation frame (pipeline step 1 of figure 3).
    """

    def __init__(self, grid: Grid, data: np.ndarray, boundary: BoundaryMode = "clamp"):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (*grid.shape, 2):
            raise FieldError(
                f"vector data must have shape {(*grid.shape, 2)} for this grid, got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise FieldError("vector data contains non-finite values")
        self.grid = grid
        self.data = data
        self.boundary: BoundaryMode = check_boundary_mode(boundary)

    # -- construction helpers ----------------------------------------------
    @classmethod
    def from_function(
        cls,
        grid: Grid,
        fn: Callable[[np.ndarray, np.ndarray], "tuple[np.ndarray, np.ndarray]"],
        boundary: BoundaryMode = "clamp",
    ) -> "VectorField2D":
        """Sample an analytic function ``fn(X, Y) -> (U, V)`` onto *grid*."""
        X, Y = grid.mesh()
        u, v = fn(X, Y)
        data = np.stack([np.broadcast_to(u, X.shape), np.broadcast_to(v, X.shape)], axis=-1)
        return cls(grid, data.astype(np.float64), boundary)

    @classmethod
    def from_components(
        cls, grid: Grid, u: np.ndarray, v: np.ndarray, boundary: BoundaryMode = "clamp"
    ) -> "VectorField2D":
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if u.shape != grid.shape or v.shape != grid.shape:
            raise FieldError(
                f"components must have grid shape {grid.shape}, got {u.shape} and {v.shape}"
            )
        return cls(grid, np.stack([u, v], axis=-1), boundary)

    # -- components ----------------------------------------------------------
    @property
    def u(self) -> np.ndarray:
        """x-component array, shape ``(ny, nx)`` (a view, not a copy)."""
        return self.data[..., 0]

    @property
    def v(self) -> np.ndarray:
        """y-component array, shape ``(ny, nx)`` (a view, not a copy)."""
        return self.data[..., 1]

    # -- sampling ------------------------------------------------------------
    def sample(self, points: np.ndarray, boundary: Optional[BoundaryMode] = None) -> np.ndarray:
        """Bilinearly sample the field at world *points* ``(N, 2) -> (N, 2)``."""
        pts = _as_points(points)
        fx, fy = self.grid.world_to_fractional(pts)
        return bilinear_sample(self.data, fx, fy, boundary or self.boundary)

    def sampler(self) -> Callable[[np.ndarray], np.ndarray]:
        """A sampling closure for hot loops, numerically identical to
        :meth:`sample`.

        Streamline integration calls the sampler dozens of times per
        frame; this closure hoists the per-call validation and boundary
        dispatch out of that loop while performing the *same arithmetic
        in the same order* as :meth:`sample`, so integrators may use
        either interchangeably without changing a single bit of output.
        Anything unusual — non-(N, 2) input, non-finite coordinates, a
        rectilinear grid, a non-clamp boundary — falls back to
        :meth:`sample` itself.
        """
        grid = self.grid
        if not isinstance(grid, RegularGrid) or self.boundary != "clamp":
            return self.sample
        data = self.data
        ny, nx = data.shape[:2]
        if nx < 2 or ny < 2:  # pragma: no cover - rejected by grid validation
            return self.sample
        origin = np.array([grid.x0, grid.y0])
        spacing = np.array([grid.dx, grid.dy])
        hi = np.array([nx - 1.0, ny - 1.0])
        hi_cell = np.array([nx - 2, ny - 2], dtype=np.int64)

        def fast_sample(points: np.ndarray) -> np.ndarray:
            pts = np.asarray(points, dtype=np.float64)
            if pts.ndim != 2 or pts.shape[1] != 2:
                return self.sample(points)
            # Same element-wise operations as world_to_fractional +
            # bilinear_sample's clamp path, fused over both columns
            # (validated finite, so the NaN-rescue pass of
            # _prepare_indices is the identity there).
            f = (pts - origin) / spacing
            if not np.isfinite(f).all():
                return self.sample(points)
            f = np.minimum(np.maximum(f, 0.0), hi)
            # Truncation equals floor for the clamped (non-negative) range.
            j0 = np.minimum(f.astype(np.int64), hi_cell)
            t = f - j0
            tx = t[:, 0][:, None]
            ty = t[:, 1][:, None]
            jx0 = j0[:, 0]
            jy0 = j0[:, 1]
            jx1 = jx0 + 1
            jy1 = jy0 + 1
            v00 = data[jy0, jx0]
            v01 = data[jy0, jx1]
            v10 = data[jy1, jx0]
            v11 = data[jy1, jx1]
            top = v00 * (1.0 - tx) + v01 * tx
            bot = v10 * (1.0 - tx) + v11 * tx
            return top * (1.0 - ty) + bot * ty

        return fast_sample

    # -- statistics ----------------------------------------------------------
    def max_magnitude(self) -> float:
        """Maximum node speed; used to scale advection steps and spot sizes."""
        return float(np.hypot(self.u, self.v).max())

    def nbytes(self) -> int:
        """Size of the raw field data in bytes (data-set read-rate budgeting)."""
        return int(self.data.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorField2D(shape={self.grid.shape}, bounds={self.grid.bounds}, "
            f"max|v|={self.max_magnitude():.3g})"
        )
