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
* :func:`radial_power_spectrum` measures a texture's spatial spectrum,
  :func:`directional_energy` its spectral energy per direction;
* :func:`temporal_coherence` measures frame-to-frame correlation of an
  animation;
* :func:`recv_message` reads one cluster wire frame from a blocking
  socket, for test-side peers;
* :func:`sync_manifest` syncs a blob store from a published cluster
  manifest, verifying every payload;
* :func:`exact_rasteriser` renders frames through the per-quad
  reference rasteriser instead of the batched kernel.

Import them as ``from oracles import ...``: the test tree's root holds
the suite's ``conftest.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional
from unittest import mock

import numpy as np

from repro.cluster import wire
from repro.core.config import SpotNoiseConfig
from repro.errors import ReproError
from repro.fields.io import field_digest
from repro.fields.scalarfield import ScalarField2D
from repro.fields.vectorfield import VectorField2D
from repro.glsim import pipe
from repro.raster.rasterize import rasterize_quads_exact
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


def directional_energy(texture: np.ndarray, n_bins: int = 36) -> np.ndarray:
    """Spectral energy integrated per direction bin over [0, pi).

    Bin ``i`` covers angles ``[i, i+1) * pi / n_bins`` of the *frequency*
    vector; a texture elongated along angle a has an energy minimum near
    ``a`` and maximum near ``a + pi/2``.
    """
    t = np.asarray(texture, dtype=np.float64)
    if n_bins < 2:
        raise ReproError(f"n_bins must be >= 2, got {n_bins}")
    spec = np.abs(np.fft.fft2(t - t.mean())) ** 2
    ky, kx = np.meshgrid(np.fft.fftfreq(t.shape[0]), np.fft.fftfreq(t.shape[1]), indexing="ij")
    angles = np.mod(np.arctan2(ky, kx), np.pi)
    bins = np.minimum((angles / np.pi * n_bins).astype(np.int64), n_bins - 1)
    ac = (kx != 0) | (ky != 0)
    energy = np.bincount(bins[ac], weights=spec[ac], minlength=n_bins)
    total = energy.sum()
    return energy / total if total > 0 else energy


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


def recv_message(sock) -> "tuple[int, dict, bytes]":
    """Read one frame from a blocking *sock*; returns ``(kind, header, body)``.

    The blocking counterpart of
    :func:`repro.cluster.wire.recv_message_async`, with the same
    :class:`~repro.cluster.wire.WireClosed`/:class:`~repro.cluster.wire.WireError`
    contract.
    """

    def exact(n: int, at_boundary: bool = False) -> bytes:
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            if not chunk:
                if at_boundary and not data:
                    raise wire.WireClosed("connection closed")
                raise wire.WireError(f"connection closed mid-frame ({len(data)}/{n} bytes)")
            data += chunk
        return data

    kind, header_len, body_len = wire._parse_prefix(exact(wire._PREFIX.size, at_boundary=True))
    header_bytes = exact(header_len)
    body = exact(body_len)
    return wire._assemble(kind, header_bytes, body, exact(wire._DIGEST_BYTES))


@dataclass(frozen=True)
class SyncReport:
    """Outcome of one :func:`sync_manifest` pass."""

    fetched: int
    deduped: int
    corrupt: int
    missing: int
    bytes_fetched: int

    @property
    def complete(self) -> bool:
        """Every advertised chunk is now present and verified locally."""
        return self.corrupt == 0 and self.missing == 0


def sync_manifest(
    manifest,
    fetch: Callable[[str], Optional[bytes]],
    dest,
) -> SyncReport:
    """Bring *dest* up to date with *manifest*, fetching missing chunks.

    *fetch* maps a chunk digest to its payload bytes (``None`` for a
    miss), as a blob store's ``get_bytes`` does.
    Every fetched payload is re-hashed against the manifest's
    ``payload_sha256`` before it is stored; a mismatch counts as
    ``corrupt`` and **nothing** is written, so a lying or damaged source
    can cost a retry but never poison the local store.  Chunks already
    present locally are deduped by store key without any transfer.
    """
    fetched = deduped = corrupt = missing = bytes_fetched = 0
    for entry in manifest.chunks:
        if dest.contains_bytes(entry.digest):
            deduped += 1
            continue
        payload = fetch(entry.digest)
        if payload is None:
            missing += 1
            continue
        if hashlib.sha256(payload).hexdigest() != entry.payload_sha256:
            corrupt += 1
            continue
        dest.put_bytes(entry.digest, payload)
        fetched += 1
        bytes_fetched += len(payload)
    return SyncReport(
        fetched=fetched,
        deduped=deduped,
        corrupt=corrupt,
        missing=missing,
        bytes_fetched=bytes_fetched,
    )


@contextmanager
def exact_rasteriser() -> Iterator[None]:
    """Within the block, graphics pipes draw with the per-quad reference
    oracle :func:`~repro.raster.rasterize.rasterize_quads_exact` instead
    of the batched kernel.

    The swap patches the name :mod:`repro.glsim.pipe` draws through, so
    it reaches only renders in this process: use it with
    ``backend="serial"`` only.  A shared-memory pool forked inside the
    block would keep the slow kernel for the rest of the session.
    """
    with mock.patch.object(pipe, "rasterize_quads_batched", rasterize_quads_exact):
        yield
