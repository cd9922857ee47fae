"""Texture quality metrics.

The paper's quality statements are visual ("very accurate renderings",
"less accurate renderings"); the ablation benches need numbers.  This
module provides the comparison tool: a structural-similarity score.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.errors import ReproError


def _check_pair(a: np.ndarray, b: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ReproError(f"textures must be equal-shape 2-D arrays, got {a.shape} vs {b.shape}")
    return a, b


def ssim(a: np.ndarray, b: np.ndarray, sigma: float = 2.0) -> float:
    """Mean structural similarity between two textures, in [-1, 1].

    The standard Gaussian-window SSIM with the usual stabilisers, with
    the dynamic range taken from the data.  Used by the mesh-resolution
    ablation to score degradation against the reference mesh.
    """
    a, b = _check_pair(a, b)
    if sigma <= 0:
        raise ReproError(f"sigma must be positive, got {sigma}")
    drange = max(a.max() - a.min(), b.max() - b.min(), 1e-12)
    c1 = (0.01 * drange) ** 2
    c2 = (0.03 * drange) ** 2

    blur = lambda x: ndimage.gaussian_filter(x, sigma=sigma, mode="nearest")
    mu_a = blur(a)
    mu_b = blur(b)
    var_a = blur(a * a) - mu_a**2
    var_b = blur(b * b) - mu_b**2
    cov = blur(a * b) - mu_a * mu_b

    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())
