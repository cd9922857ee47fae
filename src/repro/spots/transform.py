"""Flow-driven affine spot transformation.

"By modifying the shape of the spot as a function of the data, the data
are visualized by texture" (section 2).  The classic deformation (van
Wijk '91 / de Leeuw–van Wijk '95) stretches each circular spot into an
ellipse aligned with the local velocity: major axis scaled by a factor
that grows with speed, minor axis shrunk by the same factor so the area —
and hence the texture's second-order statistics — is preserved.

The paper performs this transform *in software on the processors* rather
than via per-spot OpenGL matrices, to avoid geometry-processor
synchronisation; accordingly these functions produce fully transformed
world-space vertex data ready to stream to a graphics pipe, and the
machine model charges their cost to ``genP``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SpotError


def anisotropy_factors(speeds: np.ndarray, scale: float, v_ref: float) -> np.ndarray:
    """Per-spot stretch factor ``1 + scale * |v| / v_ref`` (clipped at 1).

    ``v_ref`` normalises speed so the same *scale* knob behaves comparably
    across data sets; ``scale = 0`` keeps spots circular.
    """
    if v_ref <= 0:
        raise SpotError(f"v_ref must be positive, got {v_ref}")
    if scale < 0:
        raise SpotError(f"scale must be >= 0, got {scale}")
    speeds = np.asarray(speeds, dtype=np.float64)
    return 1.0 + scale * np.abs(speeds) / v_ref


def flow_transforms(velocities: np.ndarray, radius: float, scale: float, v_ref: float) -> np.ndarray:
    """Per-spot 2x2 affine matrices mapping unit-spot coords to world offsets.

    Parameters
    ----------
    velocities:
        ``(N, 2)`` local flow vectors at the spot centres.
    radius:
        Undeformed spot radius in world units.
    scale:
        Anisotropy strength (0 = circles).
    v_ref:
        Speed normalisation (typically the field's max magnitude).

    Returns
    -------
    ``(N, 2, 2)`` matrices ``M`` such that a local spot point ``p`` in the
    unit disk maps to ``center + M @ p``.  Columns are the (scaled) major
    and minor axes; area is preserved: ``det M = radius^2`` for all spots.
    Zero-velocity spots stay circular with an arbitrary (x-aligned) axis.
    """
    if radius <= 0:
        raise SpotError(f"radius must be positive, got {radius}")
    vel = np.asarray(velocities, dtype=np.float64)
    if vel.ndim != 2 or vel.shape[1] != 2:
        raise SpotError(f"velocities must be (N, 2), got {vel.shape}")

    speed = np.hypot(vel[:, 0], vel[:, 1])
    f = anisotropy_factors(speed, scale, v_ref)

    # Unit flow direction; x-axis fallback where the flow vanishes.
    safe = np.where(speed > 0, speed, 1.0)
    ex = np.where(speed > 0, vel[:, 0] / safe, 1.0)
    ey = np.where(speed > 0, vel[:, 1] / safe, 0.0)

    a = radius * f          # major semi-axis (along flow)
    b = radius / f          # minor semi-axis (across flow); a*b = radius^2

    m = np.empty((vel.shape[0], 2, 2), dtype=np.float64)
    m[:, 0, 0] = a * ex
    m[:, 1, 0] = a * ey
    m[:, 0, 1] = -b * ey
    m[:, 1, 1] = b * ex
    return m


# Unit-square corner offsets in spot-local coordinates, counter-clockwise,
# and the matching texture coordinates.  One textured quad per standard spot
# — "standard spots consist of four vertices" (section 3).
_QUAD_LOCAL = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_QUAD_UV = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def spot_quads(centers: np.ndarray, transforms: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """World-space quads for standard spots.

    Returns
    -------
    vertices:
        ``(N, 4, 2)`` world coordinates, counter-clockwise.
    uvs:
        ``(N, 4, 2)`` texture coordinates into the spot profile texture
        (identical for every spot, broadcast for convenience).
    """
    centers = np.asarray(centers, dtype=np.float64)
    transforms = np.asarray(transforms, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != 2:
        raise SpotError(f"centers must be (N, 2), got {centers.shape}")
    if transforms.shape != (centers.shape[0], 2, 2):
        raise SpotError(
            f"transforms must be (N, 2, 2) matching centers, got {transforms.shape}"
        )
    # vertices[n, c] = centers[n] + transforms[n] @ _QUAD_LOCAL[c].  The
    # corner offsets are +-1, so each product is exact; the two products
    # are summed before the centre is added, the order (and so the
    # rounding and the signed zeros) of the einsum contraction.
    m = transforms[:, None, :, :]
    offsets = m[..., 0] * _QUAD_LOCAL[:, None, 0] + m[..., 1] * _QUAD_LOCAL[:, None, 1]
    verts = centers[:, None, :] + offsets
    uvs = np.broadcast_to(_QUAD_UV, (centers.shape[0], 4, 2)).copy()
    return verts, uvs
