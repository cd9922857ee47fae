"""Quantitative texture statistics.

Spot noise works because the texture's second-order statistics inherit
the spot shape: stretching spots along the flow correlates the texture
along the flow.  These diagnostics measure that effect, giving the test
suite an *objective* check that the synthesised textures encode the
vector field (instead of eyeballing figures):

* :func:`anisotropy_direction` recovers the dominant correlation
  direction from the power spectrum — for a uniform flow it must match
  the flow angle;
* :func:`texture_statistics` bundles mean/variance/extrema, which the
  zero-mean property of spot intensities constrains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError


@dataclass(frozen=True)
class TextureStats:
    mean: float
    std: float
    min: float
    max: float
    rms: float


def texture_statistics(texture: np.ndarray) -> TextureStats:
    t = np.asarray(texture, dtype=np.float64)
    if t.ndim != 2:
        raise ReproError(f"texture must be 2-D, got shape {t.shape}")
    return TextureStats(
        mean=float(t.mean()),
        std=float(t.std()),
        min=float(t.min()),
        max=float(t.max()),
        rms=float(np.sqrt((t**2).mean())),
    )


def _power_spectrum(texture: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Centered power spectrum and its (kx, ky) frequency grids."""
    t = np.asarray(texture, dtype=np.float64)
    if t.ndim != 2:
        raise ReproError(f"texture must be 2-D, got shape {t.shape}")
    t = t - t.mean()
    spec = np.fft.fftshift(np.abs(np.fft.fft2(t)) ** 2)
    ky = np.fft.fftshift(np.fft.fftfreq(t.shape[0]))[:, None]
    kx = np.fft.fftshift(np.fft.fftfreq(t.shape[1]))[None, :]
    return spec, np.broadcast_to(kx, spec.shape), np.broadcast_to(ky, spec.shape)


def anisotropy_direction(texture: np.ndarray) -> "tuple[float, float]":
    """Dominant correlation direction and its strength.

    Returns ``(angle, strength)``: *angle* in ``(-pi/2, pi/2]`` is the
    direction along which the texture is most elongated (for spot noise in
    a uniform flow: the flow direction modulo pi); *strength* in [0, 1] is
    the spectral anisotropy (0 = isotropic).

    Method: the spectral second-moment tensor.  Energy of a texture
    stretched along direction d concentrates *perpendicular* to d in
    frequency space, so the elongation direction is the *minor* eigenvector
    of the tensor.
    """
    spec, kx, ky = _power_spectrum(texture)
    w = spec.sum()
    if w <= 0:
        return 0.0, 0.0
    mxx = float((spec * kx * kx).sum() / w)
    myy = float((spec * ky * ky).sum() / w)
    mxy = float((spec * kx * ky).sum() / w)
    m = np.array([[mxx, mxy], [mxy, myy]])
    evals, evecs = np.linalg.eigh(m)  # ascending
    minor = evecs[:, 0]  # least spectral spread = elongation direction
    angle = float(np.arctan2(minor[1], minor[0]))
    if angle <= -np.pi / 2:
        angle += np.pi
    elif angle > np.pi / 2:
        angle -= np.pi
    lam_min, lam_max = float(evals[0]), float(evals[1])
    strength = 0.0 if lam_max <= 0 else 1.0 - lam_min / lam_max
    return angle, strength
