"""Random spot position and intensity distributions.

Spot noise needs "a large number of randomly positioned spots with a
random intensity" of zero mean (section 2).  Besides plain uniform
sampling we provide jittered-grid sampling (lower clumping variance, used
by the figure-1 bench for a cleaner reference texture) and
density-weighted sampling for non-uniform grids, where [4] places more
spots where cells are small so texture granularity stays uniform in
*data* space.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SpotError
from repro.utils.rng import as_rng

Bounds = "tuple[float, float, float, float]"


def uniform_positions(n: int, bounds, seed=None) -> np.ndarray:
    """``(n, 2)`` positions uniform over *bounds* = (x0, x1, y0, y1)."""
    if n < 0:
        raise SpotError(f"cannot draw {n} positions")
    rng = as_rng(seed)
    x0, x1, y0, y1 = bounds
    if not (x1 > x0 and y1 > y0):
        raise SpotError(f"degenerate bounds {bounds}")
    out = np.empty((n, 2), dtype=np.float64)
    out[:, 0] = rng.uniform(x0, x1, size=n)
    out[:, 1] = rng.uniform(y0, y1, size=n)
    return out


def jittered_grid_positions(n: int, bounds, seed=None) -> np.ndarray:
    """Approximately *n* positions from a jittered (stratified) grid.

    The domain is divided into roughly-square strata, one sample placed
    uniformly inside each; exactly *n* points are returned by dropping a
    random subset of the surplus strata.
    """
    if n < 0:
        raise SpotError(f"cannot draw {n} positions")
    if n == 0:
        return np.empty((0, 2))
    rng = as_rng(seed)
    x0, x1, y0, y1 = bounds
    w, h = x1 - x0, y1 - y0
    if not (w > 0 and h > 0):
        raise SpotError(f"degenerate bounds {bounds}")
    aspect = w / h
    ncols = max(1, int(np.ceil(np.sqrt(n * aspect))))
    nrows = max(1, int(np.ceil(n / ncols)))
    cx = x0 + (np.arange(ncols) + 0.0) * (w / ncols)
    cy = y0 + (np.arange(nrows) + 0.0) * (h / nrows)
    X, Y = np.meshgrid(cx, cy)
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    pts[:, 0] += rng.uniform(0.0, w / ncols, size=pts.shape[0])
    pts[:, 1] += rng.uniform(0.0, h / nrows, size=pts.shape[0])
    keep = rng.permutation(pts.shape[0])[:n]
    return pts[np.sort(keep)]


def cell_uniform_positions(n: int, grid, seed=None) -> np.ndarray:
    """``(n, 2)`` positions with the same expected count in every grid cell.

    Equal spots per cell means world-space density proportional to inverse
    cell area — the [4] correction that keeps texture granularity constant
    in *data* space on stretched grids.  Cells are drawn uniformly and the
    position jittered within the *actual* (possibly non-uniform) cell
    rectangle.
    """
    if n < 0:
        raise SpotError(f"cannot draw {n} positions")
    rng = as_rng(seed)
    x = np.asarray(grid.x_coords(), dtype=np.float64)
    y = np.asarray(grid.y_coords(), dtype=np.float64)
    ncx, ncy = x.size - 1, y.size - 1
    choice = rng.integers(0, ncx * ncy, size=n)
    iy, ix = np.divmod(choice, ncx)
    out = np.empty((n, 2), dtype=np.float64)
    out[:, 0] = x[ix] + rng.uniform(0.0, 1.0, size=n) * (x[ix + 1] - x[ix])
    out[:, 1] = y[iy] + rng.uniform(0.0, 1.0, size=n) * (y[iy + 1] - y[iy])
    return out


def seed_positions(n: int, grid, strategy: str = "uniform", seed=None) -> np.ndarray:
    """Draw spot positions on a grid with the named strategy.

    ``"uniform"`` and ``"jittered"`` sample the world rectangle;
    ``"cell_area"`` applies the non-uniform-grid correction of [4]
    (equal expected spot count per grid cell).
    """
    if strategy == "uniform":
        return uniform_positions(n, grid.bounds, seed)
    if strategy == "jittered":
        return jittered_grid_positions(n, grid.bounds, seed)
    if strategy == "cell_area":
        return cell_uniform_positions(n, grid, seed)
    raise SpotError(f"unknown seeding strategy {strategy!r}")


def signed_intensities(n: int, amplitude: float = 1.0, seed=None) -> np.ndarray:
    """Zero-mean two-point intensities: each spot gets ±amplitude."""
    if n < 0:
        raise SpotError(f"cannot draw {n} intensities")
    if amplitude < 0:
        raise SpotError(f"amplitude must be >= 0, got {amplitude}")
    rng = as_rng(seed)
    return amplitude * rng.choice(np.array([-1.0, 1.0]), size=n)
