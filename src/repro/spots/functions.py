"""Spot intensity profiles.

A profile gives the spot function ``h`` on the unit square: ``weight(s, t)``
with local coordinates ``s, t`` in ``[-1, 1]`` and ``h = 0`` outside the
unit disk/square.  Profiles are rasterised once into a small texture
(:meth:`SpotProfile.make_texture`) which the graphics pipe then maps onto
every spot quad or bent-spot mesh — mirroring how the real implementation
keeps one spot texture resident on the InfiniteReality and re-uses it for
all spots.
"""

from __future__ import annotations

from typing import Dict, Type

import numpy as np

from repro.errors import SpotError


class SpotProfile:
    """Base class; subclasses implement :meth:`weight`."""

    #: registry name, set by subclasses
    name: str = "abstract"

    def weight(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Intensity at local coordinates ``(s, t)`` in ``[-1, 1]^2``."""
        raise NotImplementedError

    def make_texture(self, resolution: int = 32) -> np.ndarray:
        """Rasterise the profile to a ``(resolution, resolution)`` texture.

        Texel centres sample the open square, so the texture is symmetric
        and has no half-pixel bias.
        """
        if resolution < 2:
            raise SpotError(f"texture resolution must be >= 2, got {resolution}")
        c = (np.arange(resolution) + 0.5) / resolution * 2.0 - 1.0
        S, T = np.meshgrid(c, c)
        return np.ascontiguousarray(self.weight(S, T), dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DiskProfile(SpotProfile):
    """Uniform unit disk — the paper's "usually a small circle is used"."""

    name = "disk"

    def weight(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        r2 = np.asarray(s) ** 2 + np.asarray(t) ** 2
        return (r2 <= 1.0).astype(np.float64)


class GaussianProfile(SpotProfile):
    """Gaussian fall-off truncated at the unit disk.

    Softer than the disk, trading a little contrast for smoother textures.
    """

    name = "gaussian"

    def __init__(self, sigma: float = 0.45):
        if sigma <= 0:
            raise SpotError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)

    def weight(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        r2 = np.asarray(s) ** 2 + np.asarray(t) ** 2
        w = np.exp(-0.5 * r2 / self.sigma**2)
        return np.where(r2 <= 1.0, w, 0.0)


class ConeProfile(SpotProfile):
    """Linear fall-off from 1 at the centre to 0 at the unit circle."""

    name = "cone"

    def weight(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        r = np.sqrt(np.asarray(s) ** 2 + np.asarray(t) ** 2)
        return np.clip(1.0 - r, 0.0, 1.0)


class RingProfile(SpotProfile):
    """An annulus; produces band-pass textures useful for filtering studies."""

    name = "ring"

    def __init__(self, inner: float = 0.5, outer: float = 1.0):
        if not (0.0 <= inner < outer <= 1.0):
            raise SpotError(f"need 0 <= inner < outer <= 1, got inner={inner}, outer={outer}")
        self.inner = float(inner)
        self.outer = float(outer)

    def weight(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        r = np.sqrt(np.asarray(s) ** 2 + np.asarray(t) ** 2)
        return ((r >= self.inner) & (r <= self.outer)).astype(np.float64)


class DoGProfile(SpotProfile):
    """Difference-of-Gaussians: the *filtered spot* of [4].

    Positive centre, negative surround, zero integral within the unit
    disk — textures built from these spots are high-pass by construction,
    preserving fine directional detail (the spot-filtering enhancement of
    the Vis'95 paper, selectable via ``SpotNoiseConfig(profile="dog")``).
    """

    name = "dog"

    def __init__(self, sigma: float = 0.35, ratio: float = 1.8):
        # Validated inside dog_profile_weights at call time as well; check
        # here so construction fails fast.
        if sigma <= 0 or ratio <= 1.0:
            raise SpotError(f"need sigma > 0 and ratio > 1, got sigma={sigma}, ratio={ratio}")
        self.sigma = float(sigma)
        self.ratio = float(ratio)

    def weight(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        from repro.spots.filtering import dog_profile_weights

        return dog_profile_weights(s, t, self.sigma, self.ratio)


_PROFILES: Dict[str, Type[SpotProfile]] = {
    cls.name: cls
    for cls in (DiskProfile, GaussianProfile, ConeProfile, RingProfile, DoGProfile)
}


def get_profile(name: str, **kwargs) -> SpotProfile:
    """Instantiate a registered profile by name."""
    try:
        cls = _PROFILES[name]
    except KeyError:
        raise SpotError(f"unknown spot profile {name!r}; available: {sorted(_PROFILES)}") from None
    return cls(**kwargs)
