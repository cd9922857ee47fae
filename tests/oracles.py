"""Test-side oracles: independent checks the library itself never runs.

Each helper here reads back or measures what the library produced,
without going through the code under test:

* :func:`divergence_field` differentiates a vector field;
* :func:`read_pgm` reads a binary PGM written by
  :func:`repro.viz.image.write_pgm`;
* :func:`partition_is_disjoint_cover` checks a spot partition;
* :func:`quad_areas` measures the spot quads a transform produced;
* :func:`request_key` builds a :class:`~repro.service.keys.RequestKey`
  from a field and a config the way the serving layer keys a request;
* :func:`radial_power_spectrum` measures a texture's spatial spectrum;
* :func:`temporal_coherence` measures frame-to-frame correlation of an
  animation.

Import them as ``from oracles import ...``: the test tree's root holds
the suite's ``conftest.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.config import SpotNoiseConfig
from repro.errors import ReproError
from repro.fields.io import field_digest
from repro.fields.scalarfield import ScalarField2D
from repro.fields.vectorfield import VectorField2D
from repro.service.keys import RequestKey, TileSpec


def divergence_field(field: VectorField2D) -> ScalarField2D:
    """Divergence ``du/dx + dv/dy`` by central differences on the grid nodes."""
    dudx = np.gradient(field.u, field.grid.x_coords(), axis=1)
    dvdy = np.gradient(field.v, field.grid.y_coords(), axis=0)
    return ScalarField2D(field.grid, dudx + dvdy)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM written by ``write_pgm``; returns [0, 1] floats."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ReproError(f"{path} is not a binary PGM (magic {magic!r})")
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        try:
            w, h = (int(x) for x in line.split())
            maxval = int(fh.readline())
        except ValueError as exc:
            raise ReproError(f"malformed PGM header in {path}") from exc
        if maxval != 255:
            raise ReproError(f"only 8-bit PGM supported, got maxval {maxval}")
        raw = fh.read(w * h)
    if len(raw) != w * h:
        raise ReproError(f"truncated PGM data in {path}")
    data = np.frombuffer(raw, dtype=np.uint8).reshape(h, w)
    return data[::-1].astype(np.float64) / 255.0


def partition_is_disjoint_cover(parts: List[np.ndarray], n_items: int) -> bool:
    """True when the index sets are pairwise disjoint and cover ``range(n)``."""
    if not parts:
        return n_items == 0
    allidx = np.concatenate(parts)
    if allidx.size != n_items:
        return False
    return bool(np.array_equal(np.sort(allidx), np.arange(n_items)))


def quad_areas(vertices: np.ndarray) -> np.ndarray:
    """Signed area of each quad via the shoelace formula, ``(N, 4, 2) -> (N,)``."""
    v = np.asarray(vertices, dtype=np.float64)
    x = v[..., 0]
    y = v[..., 1]
    xn = np.roll(x, -1, axis=1)
    yn = np.roll(y, -1, axis=1)
    return 0.5 * np.sum(x * yn - xn * y, axis=1)


def radial_power_spectrum(texture: np.ndarray, n_bins: int = 32) -> "tuple[np.ndarray, np.ndarray]":
    """Radially averaged power spectrum.

    Returns ``(k, power)``: bin-centre spatial frequencies (cycles/pixel)
    and mean spectral power per bin.  The spot radius sets where the
    spectrum rolls off — the quantitative version of "properties of the
    spot directly control the properties of the texture".
    """
    t = np.asarray(texture, dtype=np.float64)
    if t.ndim != 2:
        raise ReproError(f"texture must be 2-D, got shape {t.shape}")
    if n_bins < 2:
        raise ReproError(f"n_bins must be >= 2, got {n_bins}")
    spec = np.abs(np.fft.fftshift(np.fft.fft2(t - t.mean()))) ** 2
    ky = np.fft.fftshift(np.fft.fftfreq(t.shape[0]))[:, None]
    kx = np.fft.fftshift(np.fft.fftfreq(t.shape[1]))[None, :]
    k = np.hypot(kx, ky)
    edges = np.linspace(0.0, 0.5, n_bins + 1)
    idx = np.clip(np.digitize(k.ravel(), edges) - 1, 0, n_bins - 1)
    power = np.bincount(idx, weights=spec.ravel(), minlength=n_bins)
    counts = np.bincount(idx, minlength=n_bins)
    centres = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_power = np.where(counts > 0, power / counts, 0.0)
    return centres, mean_power


def request_key(
    field: VectorField2D,
    config: SpotNoiseConfig,
    frame: int = 0,
    tile: Optional[TileSpec] = None,
    field_digest_hex: Optional[str] = None,
) -> RequestKey:
    """The key for serving *frame* of *field* under *config*."""
    if tile is not None:
        tile.validate_for(config.texture_size)
    return RequestKey(
        field_digest=field_digest_hex or field_digest(field),
        config_fingerprint=config.fingerprint(),
        frame=int(frame),
        tile=tile,
    )


def temporal_coherence(frames: "list[np.ndarray]") -> float:
    """Mean correlation between consecutive frames, in [-1, 1].

    Advected particles keep the texture coherent between frames;
    re-randomising spot positions every frame destroys that coherence
    even though each frame alone looks the same.
    """
    if len(frames) < 2:
        raise ReproError("need at least 2 frames to measure coherence")
    correlations = []
    for a, b in zip(frames, frames[1:]):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or a.shape != b.shape:
            raise ReproError(f"frames must be equal-shape 2-D arrays, got {a.shape} vs {b.shape}")
        da = a - a.mean()
        db = b - b.mean()
        denom = np.sqrt((da**2).sum() * (db**2).sum())
        correlations.append(float((da * db).sum() / denom) if denom > 0 else 0.0)
    return float(np.mean(correlations))
