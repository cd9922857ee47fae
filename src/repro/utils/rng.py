"""Deterministic random-number-generator plumbing.

Spot noise is a stochastic technique: spot positions and intensities are
random (van Wijk '91).  For reproducible experiments every stochastic
component in this library accepts either a seed or a ready-made
:class:`numpy.random.Generator`; :func:`as_rng` normalises the two.
"""

from __future__ import annotations

import numpy as np


def as_rng(seed: "int | np.random.Generator | np.random.SeedSequence | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts ``None`` (fresh entropy), an ``int`` seed, a
    :class:`~numpy.random.SeedSequence`, or an existing generator (returned
    unchanged, so callers can thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)
