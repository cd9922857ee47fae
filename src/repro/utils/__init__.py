"""Shared utilities: deterministic RNG handling, timing, file I/O."""

from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch, StageTimer

__all__ = [
    "as_rng",
    "Stopwatch",
    "StageTimer",
]
