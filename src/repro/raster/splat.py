"""Bilinear point splatting for the line-drawing baselines.

The arrow-plot and streamline baselines (:mod:`repro.baselines`) draw
their curves as dense point sets; :func:`splat_points` deposits each
point into the frame buffer with a bilinear (2x2 pixel) footprint, using
``np.bincount`` — the fastest scatter-add available in pure numpy.  Spot
textures never go through this path: spots are rasterised exactly by
:mod:`repro.raster.batched`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RasterError
from repro.raster.framebuffer import FrameBuffer


def splat_points(fb: FrameBuffer, points: np.ndarray, values: np.ndarray) -> int:
    """Deposit *values* at world *points* with a bilinear 2x2 footprint.

    Returns the number of points that landed (at least partially) inside
    the frame buffer.  Conservation: the sum of deposited intensity equals
    the sum of the values of interior points (boundary points lose the
    share that falls off the raster).
    """
    pts = np.asarray(points, dtype=np.float64)
    val = np.asarray(values, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise RasterError(f"points must be (N, 2), got {pts.shape}")
    if val.shape != (pts.shape[0],):
        raise RasterError(f"values must be ({pts.shape[0]},), got {val.shape}")
    if pts.shape[0] == 0:
        return 0

    w, h = fb.width, fb.height
    pp = fb.world_to_pixel(pts)
    # Centre-relative continuous coordinates: pixel (i, j) centre is at
    # (i + 0.5, j + 0.5); fx in [i, i+1) means the point sits between the
    # centres of pixels i and i+1.
    fx = pp[:, 0] - 0.5
    fy = pp[:, 1] - 0.5

    ix0 = np.floor(fx).astype(np.int64)
    iy0 = np.floor(fy).astype(np.int64)
    tx = fx - ix0
    ty = fy - iy0

    landed = np.zeros(pts.shape[0], dtype=bool)
    flat = np.zeros(h * w, dtype=np.float64)
    for dx, dy, wgt in (
        (0, 0, (1 - tx) * (1 - ty)),
        (1, 0, tx * (1 - ty)),
        (0, 1, (1 - tx) * ty),
        (1, 1, tx * ty),
    ):
        ix = ix0 + dx
        iy = iy0 + dy
        ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h) & (wgt != 0.0)
        landed |= ok
        if not ok.any():
            continue
        idx = iy[ok] * w + ix[ok]
        flat += np.bincount(idx, weights=val[ok] * wgt[ok], minlength=h * w)
    fb.data += flat.reshape(h, w)
    return int(landed.sum())
