"""Computational steering support.

The motivation for interactive spot noise is steering: "users can control
various aspects of the application" while watching the visualisation [2,
6].  A :class:`SteeringSession` exposes named, range-checked parameters
that the user (or a script) may change *between frames*; the owning
application reads them each simulation step.  Changes are journalled so
experiments are replayable — the steering analogue of a lab notebook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.errors import SteeringError


@dataclass
class Parameter:
    """A steerable scalar parameter."""

    name: str
    value: float
    lo: float
    hi: float
    description: str = ""

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise SteeringError(f"parameter {self.name!r}: lo {self.lo} > hi {self.hi}")
        if not (self.lo <= self.value <= self.hi):
            raise SteeringError(
                f"parameter {self.name!r}: initial value {self.value} outside [{self.lo}, {self.hi}]"
            )

    def set(self, value: float) -> None:
        if not (self.lo <= value <= self.hi):
            raise SteeringError(
                f"parameter {self.name!r}: {value} outside [{self.lo}, {self.hi}]"
            )
        self.value = float(value)


class SteeringSession:
    """A registry of steerable parameters plus a change journal."""

    def __init__(self) -> None:
        self._params: Dict[str, Parameter] = {}
        self._journal: List[Tuple[int, str, float]] = []
        self._frame = 0
        self._listeners: List[Callable[[str, float], None]] = []

    def register(
        self, name: str, value: float, lo: float, hi: float, description: str = ""
    ) -> Parameter:
        if name in self._params:
            raise SteeringError(f"parameter {name!r} already registered")
        p = Parameter(name, float(value), float(lo), float(hi), description)
        self._params[name] = p
        return p

    def names(self) -> List[str]:
        return sorted(self._params)

    def get(self, name: str) -> float:
        try:
            return self._params[name].value
        except KeyError:
            raise SteeringError(f"unknown parameter {name!r}; have {self.names()}") from None

    def set(self, name: str, value: float) -> None:
        """Steer: validated, journalled, listeners notified."""
        if name not in self._params:
            raise SteeringError(f"unknown parameter {name!r}; have {self.names()}")
        self._params[name].set(value)
        self._journal.append((self._frame, name, float(value)))
        for listener in self._listeners:
            listener(name, float(value))

    def on_change(self, listener: Callable[[str, float], None]) -> None:
        self._listeners.append(listener)

    def tick(self) -> None:
        """Advance the frame counter (call once per simulation step)."""
        self._frame += 1

    @property
    def journal(self) -> List[Tuple[int, str, float]]:
        """(frame, parameter, value) change records, in order."""
        return list(self._journal)
