"""Texture objects (the spot profile images resident on a graphics pipe)."""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.errors import RasterError

FilterMode = Literal["nearest", "bilinear"]


class Texture:
    """A small 2-D texture sampled by normalised coordinates ``(u, v)``.

    ``u`` and ``v`` are in ``[0, 1]``; samples outside are clamped to the
    border texel (matching ``GL_CLAMP_TO_EDGE``, the mode a spot texture
    needs so stretched quads do not wrap the profile).
    """

    def __init__(self, data: np.ndarray, filter: FilterMode = "bilinear"):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise RasterError(f"texture data must be 2-D and non-empty, got shape {data.shape}")
        if filter not in ("nearest", "bilinear"):
            raise RasterError(f"unknown filter mode {filter!r}")
        self.data = data
        self.filter: FilterMode = filter

    @property
    def shape(self) -> "tuple[int, int]":
        return self.data.shape  # type: ignore[return-value]

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def sample(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Sample at normalised coordinates; arrays of any common shape."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        h, w = self.data.shape
        if self.filter == "nearest":
            ix = np.clip((u * w).astype(np.int64), 0, w - 1)
            iy = np.clip((v * h).astype(np.int64), 0, h - 1)
            return self.data[iy, ix]
        # Bilinear with clamp-to-edge: texel centres at (i + 0.5) / w.
        # minimum/maximum pairs are the cheap form of np.clip, and
        # truncation equals floor once the range is clamped non-negative.
        # NaN coordinates pass through the float clamp; the maximum(0)
        # below bounds their garbage int cast back to texel 0, so they
        # yield NaN output (not an IndexError), as np.clip used to.
        # The four neighbours are flat gathers at one index into views
        # shifted by one texel right / one row up (no shift along an axis
        # one texel wide, where the neighbour is the texel itself).
        fx = np.minimum(np.maximum(u * w - 0.5, 0.0), w - 1.0)
        fy = np.minimum(np.maximum(v * h - 0.5, 0.0), h - 1.0)
        ix0 = np.minimum(np.maximum(fx.astype(np.int64), 0), max(w - 2, 0))
        iy0 = np.minimum(np.maximum(fy.astype(np.int64), 0), max(h - 2, 0))
        tx = fx - ix0
        ty = fy - iy0
        flat = self.data.ravel()
        i00 = iy0 * w + ix0
        right = 1 if w > 1 else 0
        up = w if h > 1 else 0
        v00 = flat.take(i00)
        v01 = flat[right:].take(i00)
        v10 = flat[up:].take(i00)
        v11 = flat[right + up:].take(i00)
        sx = 1 - tx
        return (v00 * sx + v01 * tx) * (1 - ty) + (v10 * sx + v11 * tx) * ty

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Texture({self.shape[1]}x{self.shape[0]}, filter={self.filter!r})"
