"""Field content digests.

:func:`field_digest` names a field by its content; the serving layer's
request keys and the animation layer's digest chains build on it.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

from repro.errors import FieldError
from repro.fields.grid import RegularGrid, RectilinearGrid
from repro.fields.vectorfield import VectorField2D
from repro.fields.scalarfield import ScalarField2D


def field_digest(field: Union[VectorField2D, ScalarField2D]) -> str:
    """Stable SHA-256 content digest of a field (grid + data + boundary).

    Two fields digest equal iff they would sample identically: same kind,
    same grid geometry, same boundary mode and bit-identical data.  The
    serving layer (:mod:`repro.service`) uses this as the data half of its
    content-addressed request keys, so the digest must not depend on
    incidental array properties (dtype width, memory layout) — data is
    canonicalised to C-ordered float64 before hashing.
    """
    h = hashlib.sha256()
    kind = "vector" if isinstance(field, VectorField2D) else "scalar"
    h.update(kind.encode("ascii") + b"\x00")
    h.update(str(field.boundary).encode("ascii") + b"\x00")
    grid = field.grid
    if isinstance(grid, RegularGrid):
        h.update(b"regular\x00")
        h.update(np.asarray([grid.nx, grid.ny], dtype=np.int64).tobytes())
        h.update(np.asarray(grid.bounds, dtype=np.float64).tobytes())
    elif isinstance(grid, RectilinearGrid):
        h.update(b"rectilinear\x00")
        h.update(np.ascontiguousarray(grid.x, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(grid.y, dtype=np.float64).tobytes())
    else:  # pragma: no cover - defensive
        raise FieldError(f"unsupported grid type {type(grid).__name__}")
    h.update(np.ascontiguousarray(field.data, dtype=np.float64).tobytes())
    return h.hexdigest()
