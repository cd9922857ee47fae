"""Particle populations backing the spot positions.

A :class:`ParticleSet` is a structure-of-arrays record of spot particles:
position, intensity, age and per-particle lifetime.  The animation
loop ages and recycles them each frame according to a
:class:`~repro.advection.lifecycle.LifeCyclePolicy`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import AdvectionError
from repro.utils.rng import as_rng


class ParticleSet:
    """Structure-of-arrays particle population.

    Attributes
    ----------
    positions:
        ``(N, 2)`` world coordinates (the spot centres ``x_i``).
    intensities:
        ``(N,)`` random scale factors ``a_i``, zero mean by construction.
    ages:
        ``(N,)`` age in frames since (re)birth.
    lifetimes:
        ``(N,)`` per-particle maximum age in frames.
    """

    __slots__ = ("positions", "intensities", "ages", "lifetimes")

    def __init__(
        self,
        positions: np.ndarray,
        intensities: np.ndarray,
        ages: Optional[np.ndarray] = None,
        lifetimes: Optional[np.ndarray] = None,
    ):
        positions = np.asarray(positions, dtype=np.float64)
        intensities = np.asarray(intensities, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise AdvectionError(f"positions must be (N, 2), got {positions.shape}")
        n = positions.shape[0]
        if intensities.shape != (n,):
            raise AdvectionError(f"intensities must be ({n},), got {intensities.shape}")
        self.positions = positions
        self.intensities = intensities
        self.ages = (
            np.zeros(n, dtype=np.int64) if ages is None else np.asarray(ages, dtype=np.int64)
        )
        self.lifetimes = (
            np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            if lifetimes is None
            else np.asarray(lifetimes, dtype=np.int64)
        )
        if self.ages.shape != (n,) or self.lifetimes.shape != (n,):
            raise AdvectionError("ages and lifetimes must match the particle count")

    # -- construction --------------------------------------------------------
    @classmethod
    def uniform_random(
        cls,
        n: int,
        bounds: "tuple[float, float, float, float]",
        seed=None,
        intensity: float = 1.0,
        lifetime: Optional[int] = None,
        stagger_ages: bool = True,
    ) -> "ParticleSet":
        """Spawn *n* particles uniformly in *bounds* with ±intensity weights.

        Spot intensities are drawn uniformly from ``{-intensity, +intensity}``
        — a zero-mean distribution as required by the spot noise definition
        (``a_i`` has zero mean, section 2).  With a finite *lifetime*, birth
        ages are staggered so particles do not all expire on the same frame
        (which would make the whole texture flicker in sync).
        """
        if n < 0:
            raise AdvectionError(f"cannot create {n} particles")
        rng = as_rng(seed)
        x0, x1, y0, y1 = bounds
        pos = np.empty((n, 2), dtype=np.float64)
        pos[:, 0] = rng.uniform(x0, x1, size=n)
        pos[:, 1] = rng.uniform(y0, y1, size=n)
        signs = rng.choice(np.array([-1.0, 1.0]), size=n)
        inten = intensity * signs
        if lifetime is None:
            ages = None
            lifetimes = None
        else:
            if lifetime <= 0:
                raise AdvectionError(f"lifetime must be positive, got {lifetime}")
            lifetimes = np.full(n, int(lifetime), dtype=np.int64)
            ages = rng.integers(0, lifetime, size=n) if stagger_ages else np.zeros(n, dtype=np.int64)
        return cls(pos, inten, ages, lifetimes)

    # -- basic protocol --------------------------------------------------------
    def __len__(self) -> int:
        return self.positions.shape[0]

    def copy(self) -> "ParticleSet":
        return ParticleSet(
            self.positions.copy(), self.intensities.copy(), self.ages.copy(), self.lifetimes.copy()
        )

    @classmethod
    def concatenate(cls, parts: "list[ParticleSet]") -> "ParticleSet":
        """Concatenate particle sets (inverse of partitioning, order preserved)."""
        if not parts:
            raise AdvectionError("cannot concatenate zero particle sets")
        return cls(
            np.concatenate([p.positions for p in parts]),
            np.concatenate([p.intensities for p in parts]),
            np.concatenate([p.ages for p in parts]),
            np.concatenate([p.lifetimes for p in parts]),
        )

    # -- per-frame updates -----------------------------------------------------
    def age_one_frame(self) -> np.ndarray:
        """Increment ages; return boolean mask of expired particles."""
        self.ages += 1
        return self.ages >= self.lifetimes

    def respawn(self, mask: np.ndarray, bounds: "tuple[float, float, float, float]", rng) -> int:
        """Re-seed the masked particles uniformly in *bounds*; returns count.

        Intensity signs are redrawn so the recycled spots stay zero mean.
        """
        mask = np.asarray(mask, dtype=bool)
        k = int(mask.sum())
        if k == 0:
            return 0
        x0, x1, y0, y1 = bounds
        self.positions[mask, 0] = rng.uniform(x0, x1, size=k)
        self.positions[mask, 1] = rng.uniform(y0, y1, size=k)
        self.intensities[mask] = np.abs(self.intensities[mask]) * rng.choice(
            np.array([-1.0, 1.0]), size=k
        )
        self.ages[mask] = 0
        return k

    def fade_weights(self, fade_frames: int = 0) -> np.ndarray:
        """Per-particle intensity multipliers implementing fade-in/out.

        Young particles fade in over *fade_frames* frames and fade out over
        the last *fade_frames* of their lifetime, which suppresses popping
        when particles are recycled (part of the "spot life cycle" parameter
        set adjusted for figure 2).  With ``fade_frames == 0`` all weights
        are 1.
        """
        if fade_frames <= 0:
            return np.ones(len(self))
        fade_in = np.clip((self.ages + 1) / fade_frames, 0.0, 1.0)
        remaining = np.maximum(self.lifetimes - self.ages, 0)
        finite = self.lifetimes < np.iinfo(np.int64).max
        fade_out = np.where(finite, np.clip(remaining / fade_frames, 0.0, 1.0), 1.0)
        return np.minimum(fade_in, fade_out)
