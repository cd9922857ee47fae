"""Alpha compositing for overlays.

Spot noise itself is defined by *additive* blending (the sum in
``f(x) = sum a_i h(x - x_i)``), which the rasterisers and the gather
step perform in place.  ``over`` is the figure-6 drape's operator;
:func:`repro.viz.overlay.scalar_overlay` computes it fused per channel.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RasterError


def blend_over(dst: np.ndarray, src: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Alpha compositing: ``src * alpha + dst * (1 - alpha)``.

    *alpha* broadcasts against the operands and must lie in [0, 1].
    """
    a = np.asarray(dst, dtype=np.float64)
    b = np.asarray(src, dtype=np.float64)
    if a.shape != b.shape:
        raise RasterError(f"blend operands must have equal shape, got {a.shape} vs {b.shape}")
    al = np.asarray(alpha, dtype=np.float64)
    if np.any(al < 0.0) or np.any(al > 1.0):
        raise RasterError("alpha values must lie in [0, 1]")
    return b * al + a * (1.0 - al)
