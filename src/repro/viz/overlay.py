"""Scene composition: scalar and mask overlays on spot noise textures.

Reproduces the figure-6 construction: the wind-field spot noise texture
in grayscale, the pollutant concentration draped over it in rainbow
colours with concentration-dependent opacity, and the map of Europe as a
mask outline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ReproError
from repro.viz.colormap import Colormap, finite_array, grayscale


def _as_texture01(texture: np.ndarray) -> np.ndarray:
    t = finite_array(texture, "texture")
    if t.ndim != 2:
        raise ReproError(f"texture must be 2-D, got shape {t.shape}")
    return np.clip(t, 0.0, 1.0)


def _drape(tex: np.ndarray, scalar01: np.ndarray, colormap: Colormap, max_alpha: float) -> np.ndarray:
    """Drape a normalised scalar field over a checked, clipped texture.

    The scalar's value drives both its colour (through *colormap*) and its
    opacity (0 where the scalar is 0, *max_alpha* where it is 1), so the
    flow texture stays visible underneath low concentrations — the effect
    visible in figure 6.

    Both inputs are (H, W) arrays in [0, 1]; output is (H, W, 3) RGB.
    Each channel is ``colour * alpha + texture * (1 - alpha)``, the
    ``over`` blend onto the grayscale texture (every channel of which is
    the texture) with the texture term computed once.
    """
    sca = np.asarray(scalar01, dtype=np.float64)
    if sca.shape != tex.shape:
        raise ReproError(f"scalar shape {sca.shape} != texture shape {tex.shape}")
    if not (0.0 <= max_alpha <= 1.0):
        raise ReproError(f"max_alpha must be in [0, 1], got {max_alpha}")
    sca = np.clip(sca, 0.0, 1.0)
    alpha = sca * max_alpha
    rgb = colormap(sca)
    rgb *= alpha[..., None]
    rgb += (tex * (1.0 - alpha))[..., None]
    return rgb


def mask_overlay(
    rgb: np.ndarray,
    mask: np.ndarray,
    colour: "tuple[float, float, float]" = (0.1, 0.1, 0.1),
    alpha: float = 0.8,
    outline_only: bool = True,
) -> np.ndarray:
    """Draw a boolean mask (e.g. coastlines) over an RGB image.

    With *outline_only* the mask border (mask pixels adjacent to non-mask
    pixels) is drawn — the map-of-Europe line work of figure 6; otherwise
    the filled mask is blended.
    """
    img = np.asarray(rgb, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ReproError(f"rgb must be (H, W, 3), got {img.shape}")
    m = np.asarray(mask, dtype=bool)
    if m.shape != img.shape[:2]:
        raise ReproError(f"mask shape {m.shape} != image shape {img.shape[:2]}")
    if outline_only:
        interior = np.zeros_like(m)
        interior[1:-1, 1:-1] = (
            m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
        )
        m = m & ~interior
    out = img.copy()
    col = np.asarray(colour, dtype=np.float64)
    out[m] = out[m] * (1.0 - alpha) + col * alpha
    return out


def compose_scene(
    texture01: np.ndarray,
    scalar01: Optional[np.ndarray] = None,
    colormap: Optional[Colormap] = None,
    mask: Optional[np.ndarray] = None,
    max_alpha: float = 0.65,
) -> np.ndarray:
    """Full figure-6 style composition: texture + scalar drape + map mask."""
    tex = _as_texture01(texture01)
    if scalar01 is not None:
        if colormap is None:
            raise ReproError("a colormap is required to overlay a scalar")
        rgb = _drape(tex, scalar01, colormap, max_alpha)
    else:
        rgb = grayscale()(tex)
    if mask is not None:
        rgb = mask_overlay(rgb, mask)
    return rgb
