"""OpenGL-like state machine with state-change accounting.

"The overhead of setting the OpenGL state machine may be quite
substantial.  Setting OpenGL in a new state may result in synchronization
latencies within the graphics pipe" (section 3) — on the InfiniteReality,
every transformation-matrix set synchronises four geometry processors.
The machine cost model charges for exactly the state transitions recorded
here, which is what makes the software-vs-hardware spot-transform
tradeoff (section 4) measurable in the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.errors import GLStateError

#: State keys whose mutation forces a geometry-processor synchronisation.
SYNCHRONIZING_KEYS = frozenset({"transform"})

#: All legal state keys and their default values.
_DEFAULTS: Dict[str, Any] = {
    "blend_mode": "add",
    "texture": None,
    "transform": None,  # None = identity, spots arrive pre-transformed
    "raster_backend": "batched",  # 'exact' (reference oracle) | 'batched'
}

_VALID_BLEND = ("add", "max", "over")
_VALID_RASTER_BACKEND = ("exact", "batched")


@dataclass
class StateChangeLog:
    """Tally of state transitions, split by whether they synchronise."""

    total: int = 0
    synchronizing: int = 0
    by_key: Dict[str, int] = field(default_factory=dict)

    def record(self, key: str) -> None:
        self.total += 1
        self.by_key[key] = self.by_key.get(key, 0) + 1
        if key in SYNCHRONIZING_KEYS:
            self.synchronizing += 1

    def reset(self) -> None:
        self.total = 0
        self.synchronizing = 0
        self.by_key.clear()


class GLState:
    """A small validated key-value state machine.

    Redundant sets (same value) are *not* counted as changes — real drivers
    filter them too, and the paper's overhead concern is about genuine
    transitions.
    """

    def __init__(self) -> None:
        self._state: Dict[str, Any] = dict(_DEFAULTS)
        self.log = StateChangeLog()

    def get(self, key: str) -> Any:
        try:
            return self._state[key]
        except KeyError:
            raise GLStateError(f"unknown state key {key!r}; valid: {sorted(_DEFAULTS)}") from None

    def set(self, key: str, value: Any) -> bool:
        """Set *key*; returns True if the state actually changed."""
        if key not in _DEFAULTS:
            raise GLStateError(f"unknown state key {key!r}; valid: {sorted(_DEFAULTS)}")
        if key == "blend_mode" and value not in _VALID_BLEND:
            raise GLStateError(f"invalid blend mode {value!r}; valid: {_VALID_BLEND}")
        if key == "raster_backend" and value not in _VALID_RASTER_BACKEND:
            raise GLStateError(
                f"invalid raster backend {value!r}; valid: {_VALID_RASTER_BACKEND}"
            )
        current = self._state[key]
        if current is value or current == value:
            return False
        self._state[key] = value
        self.log.record(key)
        return True

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the current state (queries do not count as changes)."""
        return dict(self._state)

    def reset(self) -> None:
        self._state = dict(_DEFAULTS)
        self.log.reset()
