"""Rendering helpers: colormaps, overlays, image IO, texture statistics.

This is pipeline step 4 ("render scene"): mapping the synthesised
texture, optionally with a scalar field draped over it (figure 6 shows O3
concentration over the wind texture) and a geography mask, to a
displayable image.  The statistics module quantifies texture anisotropy,
which the tests use to verify that spot noise actually encodes the flow.
"""

from repro.viz.colormap import Colormap, rainbow, grayscale, diverging
from repro.viz.overlay import mask_overlay, compose_scene
from repro.viz.image import write_pgm, write_ppm, to_uint8
from repro.viz.stats import (
    texture_statistics,
    anisotropy_direction,
    TextureStats,
)
from repro.viz.quality import ssim

__all__ = [
    "Colormap",
    "rainbow",
    "grayscale",
    "diverging",
    "mask_overlay",
    "compose_scene",
    "write_pgm",
    "write_ppm",
    "to_uint8",
    "texture_statistics",
    "anisotropy_direction",
    "TextureStats",
    "ssim",
]
