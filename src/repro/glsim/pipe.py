"""The simulated graphics pipe.

A :class:`GraphicsPipe` owns a frame buffer, holds a
:class:`~repro.glsim.state.GLState`, executes the command stream against
the software rasteriser, and counts everything it does.  The counters are
the contract with :mod:`repro.machine`: simulated time is *derived* from
them, never measured, so the performance model is deterministic and
host-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import GLStateError
from repro.glsim.commands import (
    BindTexture,
    Clear,
    Command,
    DrawQuads,
    ReadPixels,
    SetBlendMode,
    SetTransform,
    command_bytes,
)
from repro.glsim.state import GLState
from repro.raster.batched import rasterize_quads_batched
from repro.raster.framebuffer import FrameBuffer
from repro.raster.rasterize import rasterize_quads_exact
from repro.raster.texture import Texture


@dataclass
class PipeCounters:
    """Work performed by a pipe since the last reset."""

    vertices_in: int = 0
    quads_drawn: int = 0
    pixels_filled: int = 0
    bytes_received: int = 0
    state_changes: int = 0
    synchronizing_changes: int = 0
    texture_uploads: int = 0
    readbacks: int = 0
    clears: int = 0

    def merged_with(self, other: "PipeCounters") -> "PipeCounters":
        return PipeCounters(
            **{k: getattr(self, k) + getattr(other, k) for k in self.__dataclass_fields__}
        )


class GraphicsPipe:
    """One simulated InfiniteReality pipe.

    Parameters
    ----------
    pipe_id:
        Identifier (0-based) within the workstation.
    width, height, window:
        Frame buffer geometry; a tiled configuration gives each pipe a
        smaller buffer covering only its tile.
    """

    def __init__(self, pipe_id: int, width: int, height: int, window):
        self.pipe_id = int(pipe_id)
        self.state = GLState()
        self.framebuffer = FrameBuffer(width, height, window)
        self.counters = PipeCounters()
        self._textures: Dict[int, Texture] = {}
        self._bound_texture: Optional[Texture] = None

    # -- texture management ----------------------------------------------------
    def upload_texture(self, texture_id: int, texture: Texture) -> None:
        """Make a texture resident on the pipe (counted once, then cached)."""
        if texture_id in self._textures:
            raise GLStateError(f"texture id {texture_id} already uploaded to pipe {self.pipe_id}")
        self._textures[texture_id] = texture
        self.counters.texture_uploads += 1
        self.counters.bytes_received += texture.nbytes()

    def has_texture(self, texture_id: int) -> bool:
        return texture_id in self._textures

    # -- command execution -------------------------------------------------------
    def execute(self, cmd: Command) -> None:
        """Execute one command, updating the frame buffer and counters."""
        self.counters.bytes_received += command_bytes(cmd)
        before = self.state.log.total
        before_sync = self.state.log.synchronizing

        if isinstance(cmd, BindTexture):
            if cmd.texture_id not in self._textures:
                raise GLStateError(
                    f"texture id {cmd.texture_id} not uploaded to pipe {self.pipe_id}"
                )
            if self.state.set("texture", cmd.texture_id):
                self._bound_texture = self._textures[cmd.texture_id]
        elif isinstance(cmd, SetBlendMode):
            self.state.set("blend_mode", cmd.mode)
        elif isinstance(cmd, SetTransform):
            self.state.set("transform", cmd.transform)
        elif isinstance(cmd, Clear):
            self.framebuffer.clear()
            self.counters.clears += 1
        elif isinstance(cmd, ReadPixels):
            self.counters.readbacks += 1
        elif isinstance(cmd, DrawQuads):
            self._draw(cmd)
        else:
            raise GLStateError(f"unknown command type {type(cmd).__name__}")

        self.counters.state_changes += self.state.log.total - before
        self.counters.synchronizing_changes += self.state.log.synchronizing - before_sync

    def _draw(self, cmd: DrawQuads) -> None:
        if self.state.get("blend_mode") != "add":
            raise GLStateError("spot synthesis requires additive blending")
        quads = cmd.quads
        transform = self.state.get("transform")
        if transform is not None and not transform.is_identity():
            quads = transform.apply(quads)

        # Scanline rasterisation has two implementations producing
        # bit-identical pixels: the vectorised batch renderer (the
        # default) and the per-quad reference loop (the oracle).
        if self.state.get("raster_backend") == "batched":
            rasterize = rasterize_quads_batched
        else:
            rasterize = rasterize_quads_exact
        pixels = rasterize(
            self.framebuffer, quads, cmd.uvs, cmd.intensities, self._bound_texture
        )
        self.counters.vertices_in += cmd.n_vertices
        self.counters.quads_drawn += cmd.n_quads
        self.counters.pixels_filled += pixels

    def run(self, commands: "list[Command]") -> None:
        for cmd in commands:
            self.execute(cmd)

    # -- results -------------------------------------------------------------
    def read_pixels(self) -> np.ndarray:
        """Copy out the partial texture (counted as a readback command)."""
        self.execute(ReadPixels(self.framebuffer.width, self.framebuffer.height))
        return self.framebuffer.data.copy()

    def reset_counters(self) -> None:
        self.counters = PipeCounters()
        self.state.log.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphicsPipe(id={self.pipe_id}, fb={self.framebuffer!r})"
