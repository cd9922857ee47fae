"""Conservative spot-to-tile assignment.

The texture-tiling tradeoff of section 3 assigns each spot "to each
process group it might affect": a spot's centre tested against its tile
rect grown by the spot's reach.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RasterError


def points_in_rect(points: np.ndarray, rect: "tuple[float, float, float, float]", margin: float = 0.0) -> np.ndarray:
    """Mask of points inside a rect expanded by *margin* on all sides.

    Used for spot-to-tile assignment: a spot with extent *margin* can affect
    a tile if its centre lies within the expanded rect.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise RasterError(f"points must be (N, 2), got {pts.shape}")
    if margin < 0:
        raise RasterError(f"margin must be >= 0, got {margin}")
    x0, x1, y0, y1 = rect
    return (
        (pts[:, 0] >= x0 - margin)
        & (pts[:, 0] <= x1 + margin)
        & (pts[:, 1] >= y0 - margin)
        & (pts[:, 1] <= y1 + margin)
    )
