"""Simulated graphics subsystem.

Each process group renders through one simulated InfiniteReality pipe.
Changing OpenGL state on such a pipe synchronises its geometry
processors, so the paper transforms spots in software and draws each
pipe's whole spot set with one bound texture and additive blending;
:mod:`repro.machine` prices that state cost.  This package models the
pipe that design leaves: a command stream with byte accounting (bus
traffic) and a :class:`GraphicsPipe` that executes it against the
software rasteriser while counting the work it performs.

The counters — vertices in, quads scan-converted, pixels filled, bytes
moved, texture uploads — are the interface to :mod:`repro.machine`,
which converts them into simulated time.
"""

from repro.glsim.commands import (
    Command,
    BindTexture,
    SetBlendMode,
    DrawQuads,
    command_bytes,
)
from repro.glsim.pipe import GraphicsPipe, PipeCounters

__all__ = [
    "Command",
    "BindTexture",
    "SetBlendMode",
    "DrawQuads",
    "command_bytes",
    "GraphicsPipe",
    "PipeCounters",
]
