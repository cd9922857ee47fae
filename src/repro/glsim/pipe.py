"""The simulated graphics pipe.

A :class:`GraphicsPipe` owns a frame buffer and the resident spot-profile
textures, executes the command stream against the production software
rasteriser (:func:`~repro.raster.batched.rasterize_quads_batched`), and
counts everything it does.  The counters are the contract with
:mod:`repro.machine`: simulated time is *derived* from them, never
measured, so the performance model is deterministic and
host-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import GLStateError
from repro.glsim.commands import (
    BindTexture,
    Command,
    DrawQuads,
    SetBlendMode,
    command_bytes,
)
from repro.raster.batched import rasterize_quads_batched
from repro.raster.framebuffer import FrameBuffer
from repro.raster.texture import Texture


@dataclass
class PipeCounters:
    """Work performed by a pipe."""

    vertices_in: int = 0
    quads_drawn: int = 0
    pixels_filled: int = 0
    bytes_received: int = 0
    texture_uploads: int = 0

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
        self.framebuffer = FrameBuffer(width, height, window)
        self.counters = PipeCounters()
        self._textures: Dict[int, Texture] = {}
        self._bound_texture: Optional[Texture] = None
        self._blend_mode = "add"

    def upload_texture(self, texture_id: int, texture: Texture) -> None:
        """Make a texture resident on the pipe (counted once, then cached)."""
        if texture_id in self._textures:
            raise GLStateError(f"texture id {texture_id} already uploaded to pipe {self.pipe_id}")
        self._textures[texture_id] = texture
        self.counters.texture_uploads += 1
        self.counters.bytes_received += texture.nbytes()

    def execute(self, cmd: Command) -> None:
        """Execute one command, updating the frame buffer and counters."""
        self.counters.bytes_received += command_bytes(cmd)
        if isinstance(cmd, BindTexture):
            if cmd.texture_id not in self._textures:
                raise GLStateError(
                    f"texture id {cmd.texture_id} not uploaded to pipe {self.pipe_id}"
                )
            self._bound_texture = self._textures[cmd.texture_id]
        elif isinstance(cmd, SetBlendMode):
            self._blend_mode = cmd.mode
        elif isinstance(cmd, DrawQuads):
            self._draw(cmd)

    def _draw(self, cmd: DrawQuads) -> None:
        if self._blend_mode != "add":
            raise GLStateError("spot synthesis requires additive blending")
        # Looked up by module name on every draw, so a test can swap in
        # the per-quad reference oracle (``rasterize_quads_exact``).
        pixels = rasterize_quads_batched(
            self.framebuffer, cmd.quads, cmd.uvs, cmd.intensities, self._bound_texture
        )
        self.counters.vertices_in += cmd.n_vertices
        self.counters.quads_drawn += cmd.n_quads
        self.counters.pixels_filled += pixels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphicsPipe(id={self.pipe_id}, fb={self.framebuffer!r})"
