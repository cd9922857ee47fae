"""Minimal netpbm image IO (no imaging dependencies).

Textures and composed scenes are written as binary PGM (grayscale) and
PPM (RGB).  Arrays follow the library's y-up convention; images are
flipped to the y-down raster order of the file formats on write.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.errors import ReproError
from repro.utils.fileio import atomic_write_bytes

PathLike = Union[str, os.PathLike]


def to_uint8(values01: np.ndarray) -> np.ndarray:
    """Quantise [0, 1] floats to uint8 with clipping and rounding."""
    v = np.asarray(values01, dtype=np.float64)
    return np.clip(np.rint(v * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path: PathLike, texture01: np.ndarray) -> None:
    """Write a [0, 1] grayscale array as binary PGM (P5), atomically."""
    t = np.asarray(texture01, dtype=np.float64)
    if t.ndim != 2:
        raise ReproError(f"PGM needs a 2-D array, got shape {t.shape}")
    data = to_uint8(t)[::-1]  # y-up -> y-down
    h, w = data.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + data.tobytes())


def write_ppm(path: PathLike, rgb01: np.ndarray) -> None:
    """Write a [0, 1] (H, W, 3) RGB array as binary PPM (P6), atomically."""
    img = np.asarray(rgb01, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ReproError(f"PPM needs an (H, W, 3) array, got shape {img.shape}")
    data = to_uint8(img)[::-1]
    h, w = data.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + data.tobytes())
