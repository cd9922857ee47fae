"""Graphics command stream with byte accounting.

Masters stream commands to their pipe over the workstation bus; the
"vertex and texture movement" tradeoff of section 3 is about the size of
this stream.  :func:`command_bytes` is the single source of truth for how
many bytes each command occupies on the bus — the Table 2 discussion's
"approximately 31.0 megabyte per texture" is reproduced from it.

Vertex data is counted at 4 bytes per float (the wire format the Onyx2
used for raw geometric data); each vertex carries an (x, y) position and a
(u, v) texture coordinate, and each quad additionally carries its scalar
intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import GLStateError

BYTES_PER_FLOAT = 4
#: floats per vertex on the wire: x, y, u, v
FLOATS_PER_VERTEX = 4


@dataclass(frozen=True)
class BindTexture:
    """Bind a spot-profile texture; *nbytes* counted only when uploading."""

    texture_id: int
    upload_nbytes: int = 0


@dataclass(frozen=True)
class SetBlendMode:
    mode: str


class DrawQuads:
    """A batch of textured quads (the payload of texture synthesis).

    Parameters mirror the rasteriser: ``quads``/``uvs`` are ``(N, 4, 2)``,
    ``intensities`` is ``(N,)``.
    """

    __slots__ = ("quads", "uvs", "intensities")

    def __init__(self, quads: np.ndarray, uvs: np.ndarray, intensities: np.ndarray):
        quads = np.asarray(quads, dtype=np.float64)
        uvs = np.asarray(uvs, dtype=np.float64)
        intensities = np.asarray(intensities, dtype=np.float64)
        if quads.ndim != 3 or quads.shape[1:] != (4, 2):
            raise GLStateError(f"quads must be (N, 4, 2), got {quads.shape}")
        if uvs.shape != quads.shape:
            raise GLStateError(f"uvs must match quads shape, got {uvs.shape}")
        if intensities.shape != (quads.shape[0],):
            raise GLStateError(f"intensities must be (N,), got {intensities.shape}")
        self.quads = quads
        self.uvs = uvs
        self.intensities = intensities

    @property
    def n_quads(self) -> int:
        return self.quads.shape[0]

    @property
    def n_vertices(self) -> int:
        return 4 * self.n_quads

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DrawQuads(n_quads={self.n_quads})"


Command = Union[BindTexture, SetBlendMode, DrawQuads]

_SMALL_COMMAND_BYTES = 16  # opcode + a couple of words


def command_bytes(cmd: Command) -> int:
    """Bus bytes occupied by *cmd* (processor -> pipe direction)."""
    if isinstance(cmd, DrawQuads):
        vertex_bytes = cmd.n_vertices * FLOATS_PER_VERTEX * BYTES_PER_FLOAT
        intensity_bytes = cmd.n_quads * BYTES_PER_FLOAT
        return _SMALL_COMMAND_BYTES + vertex_bytes + intensity_bytes
    if isinstance(cmd, BindTexture):
        return _SMALL_COMMAND_BYTES + cmd.upload_nbytes
    if isinstance(cmd, SetBlendMode):
        return _SMALL_COMMAND_BYTES
    raise GLStateError(f"unknown command type {type(cmd).__name__}")
