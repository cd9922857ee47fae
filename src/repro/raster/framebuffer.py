"""Accumulation frame buffer.

A :class:`FrameBuffer` is a 2-D float intensity raster with a world-space
window.  Row 0 is the *bottom* row (mathematical orientation, matching
the fields' y-up convention); the PGM/PPM writers flip for display.

The divide-and-conquer runtime gives each graphics pipe its own frame
buffer (possibly covering only a tile of the final texture) and composes
them afterwards (:mod:`repro.parallel.compose`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import RasterError


class FrameBuffer:
    """Float64 intensity raster over a world window.

    Parameters
    ----------
    width, height:
        Raster size in pixels (the paper's final texture is 512x512).
    window:
        ``(x0, x1, y0, y1)`` world rectangle covered by the raster.
    """

    def __init__(self, width: int, height: int, window: Tuple[float, float, float, float]):
        if width < 1 or height < 1:
            raise RasterError(f"frame buffer must be at least 1x1, got {width}x{height}")
        x0, x1, y0, y1 = (float(v) for v in window)
        if not (x1 > x0 and y1 > y0):
            raise RasterError(f"degenerate window {window}")
        self.width = int(width)
        self.height = int(height)
        self.window = (x0, x1, y0, y1)
        self.data = np.zeros((height, width), dtype=np.float64)

    # -- geometry ------------------------------------------------------------
    @property
    def pixel_size(self) -> Tuple[float, float]:
        x0, x1, y0, y1 = self.window
        return ((x1 - x0) / self.width, (y1 - y0) / self.height)

    def world_to_pixel(self, points: np.ndarray) -> np.ndarray:
        """Continuous pixel coordinates; pixel (i, j) has centre (i+0.5, j+0.5).

        Returns ``(N, 2)`` with column 0 = x-pixel, column 1 = y-pixel.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise RasterError(f"points must be (N, 2), got {pts.shape}")
        x0, x1, y0, y1 = self.window
        out = np.empty_like(pts)
        out[:, 0] = (pts[:, 0] - x0) / (x1 - x0) * self.width
        out[:, 1] = (pts[:, 1] - y0) / (y1 - y0) * self.height
        return out

    def pixel_to_world(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        x0, x1, y0, y1 = self.window
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        return np.stack(
            [x0 + px / self.width * (x1 - x0), y0 + py / self.height * (y1 - y0)], axis=-1
        )

    # -- content -------------------------------------------------------------
    def copy(self) -> "FrameBuffer":
        fb = FrameBuffer(self.width, self.height, self.window)
        fb.data[...] = self.data
        return fb

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FrameBuffer({self.width}x{self.height}, window={self.window})"
