"""Vectorised bilinear sampling of gridded data.

Everything in the pipeline that touches a field — particle advection,
spot transforms, bent-spot streamline integration — funnels through
:func:`bilinear_sample`.  It is written to take *all* query points at
once (fractional indices from the grid) and uses pure numpy gathers so a
single call amortises over tens of thousands of particles, per the
vectorise-your-inner-loop rule for numerical Python.
"""

from __future__ import annotations

from typing import Literal, Tuple

import numpy as np

from repro.errors import FieldError

BoundaryMode = Literal["clamp", "wrap", "zero"]

_BOUNDARY_MODES = ("clamp", "wrap", "zero")


def check_boundary_mode(mode: str) -> BoundaryMode:
    """*mode* itself, or :class:`FieldError` if it is not a boundary mode."""
    if mode not in _BOUNDARY_MODES:
        raise FieldError(f"unknown boundary mode {mode!r}; expected one of {_BOUNDARY_MODES}")
    return mode  # type: ignore[return-value]


def _prepare_indices(
    f: np.ndarray, n: int, mode: BoundaryMode, need_inside: bool = True
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, "np.ndarray | None"]:
    """Split fractional indices into (i0, i1, weight, inside-mask).

    ``i0``/``i1`` are valid array indices for the chosen boundary mode, ``t``
    is the interpolation weight toward ``i1`` and ``inside`` flags samples
    whose original coordinate was within the index range ``[0, n-1]``.
    The inside mask is only consumed by the ``"zero"`` boundary mode;
    callers on the hot path skip it with ``need_inside=False`` (``None``
    is returned in its place).
    """
    check_boundary_mode(mode)
    f = np.asarray(f, dtype=np.float64)
    finite = np.isfinite(f)
    if not finite.all():
        # Non-finite queries (corrupted particle state) sample the origin
        # texel and are flagged as outside; they must not poison the cast.
        f = np.where(finite, f, 0.0)
    inside = ((f >= 0.0) & (f <= n - 1) & finite) if need_inside else None
    if mode == "wrap":
        f = np.mod(f, n - 1)
    else:
        f = np.clip(f, 0.0, n - 1)
    i0 = np.floor(f).astype(np.int64)
    np.clip(i0, 0, n - 2, out=i0)
    t = f - i0
    return i0, i0 + 1, t, inside


def bilinear_sample(
    data: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    mode: BoundaryMode = "clamp",
) -> np.ndarray:
    """Bilinearly interpolate *data* at fractional indices ``(fx, fy)``.

    Parameters
    ----------
    data:
        ``(ny, nx)`` scalar array or ``(ny, nx, k)`` array of k-vectors.
    fx, fy:
        Fractional index arrays of identical shape ``(N,)`` (``fx`` along
        the second axis of *data*).
    mode:
        Boundary policy for out-of-range samples: ``"clamp"`` extends edge
        values, ``"wrap"`` is periodic, ``"zero"`` returns zeros outside.

    Returns
    -------
    ``(N,)`` or ``(N, k)`` array of interpolated values.
    """
    data = np.asarray(data)
    if data.ndim not in (2, 3):
        raise FieldError(f"data must be (ny, nx) or (ny, nx, k), got shape {data.shape}")
    fx = np.asarray(fx, dtype=np.float64)
    fy = np.asarray(fy, dtype=np.float64)
    if fx.shape != fy.shape:
        raise FieldError(f"fx and fy must have the same shape, got {fx.shape} vs {fy.shape}")

    ny, nx = data.shape[:2]
    if nx < 2 or ny < 2:
        raise FieldError("data must span at least 2 nodes per axis")

    need_inside = mode == "zero"
    jx0, jx1, tx, in_x = _prepare_indices(fx, nx, mode, need_inside)
    jy0, jy1, ty, in_y = _prepare_indices(fy, ny, mode, need_inside)

    if data.ndim == 3:
        tx = tx[..., None]
        ty = ty[..., None]

    v00 = data[jy0, jx0]
    v01 = data[jy0, jx1]
    v10 = data[jy1, jx0]
    v11 = data[jy1, jx1]

    top = v00 * (1.0 - tx) + v01 * tx
    bot = v10 * (1.0 - tx) + v11 * tx
    out = top * (1.0 - ty) + bot * ty

    if mode == "zero":
        outside = ~(in_x & in_y)
        if data.ndim == 3:
            out = np.where(outside[..., None], 0.0, out)
        else:
            out = np.where(outside, 0.0, out)
    return out


def nearest_sample(
    data: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    mode: BoundaryMode = "clamp",
) -> np.ndarray:
    """Nearest-neighbour sampling (used for the geography/land-mask overlay)."""
    check_boundary_mode(mode)
    data = np.asarray(data)
    if data.ndim not in (2, 3):
        raise FieldError(f"data must be (ny, nx) or (ny, nx, k), got shape {data.shape}")
    fx = np.asarray(fx, dtype=np.float64)
    fy = np.asarray(fy, dtype=np.float64)
    ny, nx = data.shape[:2]

    def idx(f: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
        inside = (f >= -0.5) & (f <= n - 0.5)
        if mode == "wrap":
            f = np.mod(f, n)
        i = np.clip(np.rint(f).astype(np.int64), 0, n - 1)
        return i, inside

    ix, in_x = idx(fx, nx)
    iy, in_y = idx(fy, ny)
    out = data[iy, ix]
    if mode == "zero":
        outside = ~(in_x & in_y)
        if data.ndim == 3:
            out = np.where(outside[..., None], 0, out)
        else:
            out = np.where(outside, 0, out)
    return out
