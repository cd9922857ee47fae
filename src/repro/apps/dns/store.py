"""Chunked on-disk time-series store for DNS slices.

"A few weeks of computing can easily produce a few terabytes of data.  A
data browser is being developed to analyse such scientific data bases"
(section 5.2).  This store is that database substrate at laptop scale:
frames are appended sequentially, packed into fixed-size chunk files
(compressed ``.npz``), and random access loads exactly one chunk.
Decoded chunks stay in a byte-bounded LRU (the memory tier's
:class:`~repro.service.cache.LRUTextureCache` at its default budget),
shared by every reader of one store — the scrubbing client, the
animation walk and texture-service workers — so a scrub's random seeks
and the walk's reads inflate each chunk once while it stays resident.
"""

from __future__ import annotations

import json
import os
import threading
from typing import List

import numpy as np

from repro.errors import StoreError
from repro.fields.grid import RectilinearGrid
from repro.fields.vectorfield import VectorField2D
from repro.service.cache import DEFAULT_MEMORY_BUDGET, LRUTextureCache
from repro.utils.fileio import atomic_write, load_npz

_META_NAME = "meta.json"
_FORMAT_VERSION = 1


class ChunkedFieldStore:
    """Append-only chunked store of vector-field frames on one grid.

    Parameters
    ----------
    directory:
        Store location (created if missing when *create* is used).
    """

    def __init__(self, directory: "str | os.PathLike"):
        self.directory = os.fspath(directory)
        meta_path = os.path.join(self.directory, _META_NAME)
        if not os.path.exists(meta_path):
            raise StoreError(
                f"{self.directory} is not a field store (no {_META_NAME}); "
                "use ChunkedFieldStore.create(...)"
            )
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("format_version") != _FORMAT_VERSION:
            raise StoreError(f"unsupported store format {meta.get('format_version')}")
        self.frames_per_chunk = int(meta["frames_per_chunk"])
        self.n_frames = int(meta["n_frames"])
        self.times: List[float] = [float(t) for t in meta["times"]]
        self.grid = RectilinearGrid(np.asarray(meta["x"]), np.asarray(meta["y"]))
        self._pending: List[np.ndarray] = []
        # Decoded chunks (float64, read-only) keyed by chunk index; the
        # LRU's own lock serves the client, walk and service threads.
        self._chunks = LRUTextureCache(DEFAULT_MEMORY_BUDGET)
        # One inflation at a time, so concurrent misses on one chunk
        # decode it once.
        self._inflate_lock = threading.Lock()

    # -- creation ----------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: "str | os.PathLike",
        grid: RectilinearGrid,
        frames_per_chunk: int = 16,
    ) -> "ChunkedFieldStore":
        """Initialise an empty store for fields on *grid*."""
        if frames_per_chunk < 1:
            raise StoreError(f"frames_per_chunk must be >= 1, got {frames_per_chunk}")
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        meta_path = os.path.join(directory, _META_NAME)
        if os.path.exists(meta_path):
            raise StoreError(f"store already exists at {directory}")
        meta = {
            "format_version": _FORMAT_VERSION,
            "frames_per_chunk": frames_per_chunk,
            "n_frames": 0,
            "times": [],
            "x": [float(v) for v in grid.x],
            "y": [float(v) for v in grid.y],
        }
        atomic_write(meta_path, lambda fh: fh.write(json.dumps(meta).encode("utf-8")))
        return cls(directory)

    # -- write path ----------------------------------------------------------------
    def append(self, field: VectorField2D, time: float = 0.0) -> int:
        """Append one frame; returns its frame index.  Call :meth:`flush` last.

        The frame reaches disk, and the store's metadata, when its chunk
        fills or at :meth:`flush`; until then only this store object
        serves it, and a reopened store does not count it.
        """
        if field.grid.shape != self.grid.shape:
            raise StoreError(
                f"frame shape {field.grid.shape} != store grid shape {self.grid.shape}"
            )
        if not self._pending and self.n_frames % self.frames_per_chunk:
            # The last chunk on disk is partial (flushed, or written by an
            # earlier session): take its frames back, so the chunk is
            # rewritten whole once it fills.
            chunk = self._load_chunk(self.n_frames // self.frames_per_chunk)
            self._pending = [np.asarray(f, dtype=np.float32) for f in chunk]
        self._pending.append(np.asarray(field.data, dtype=np.float32))
        index = self.n_frames
        self.n_frames += 1
        self.times.append(float(time))
        if len(self._pending) == self.frames_per_chunk:
            self._write_pending()
        return index

    def flush(self) -> None:
        """Write any buffered partial chunk to disk."""
        if self._pending:
            self._write_pending()

    def _chunk_path(self, chunk_index: int) -> str:
        return os.path.join(self.directory, f"chunk_{chunk_index:06d}.npz")

    def _write_pending(self) -> None:
        """Write the buffered frames as one chunk, then the metadata that
        counts them: meta only ever records frames that are on disk."""
        first_frame = self.n_frames - len(self._pending)
        chunk_index = first_frame // self.frames_per_chunk
        if first_frame % self.frames_per_chunk != 0:
            raise StoreError("internal error: pending frames not chunk-aligned")
        # Atomic: a crash mid-write must leave either no chunk file or a
        # complete one — a truncated .npz would turn every later read of
        # this chunk into a StoreError.
        frames = np.stack(self._pending, axis=0)
        atomic_write(
            self._chunk_path(chunk_index),
            lambda fh: np.savez_compressed(fh, frames=frames),
        )
        self._pending.clear()
        # The rewritten chunk replaces any copy cached while it was
        # partial; every other chunk is unchanged.
        self._chunks.put(str(chunk_index), frames)
        self._write_meta()

    def _write_meta(self) -> None:
        meta = {
            "format_version": _FORMAT_VERSION,
            "frames_per_chunk": self.frames_per_chunk,
            "n_frames": self.n_frames,
            "times": self.times,
            "x": [float(v) for v in self.grid.x],
            "y": [float(v) for v in self.grid.y],
        }
        atomic_write(
            os.path.join(self.directory, _META_NAME),
            lambda fh: fh.write(json.dumps(meta).encode("utf-8")),
        )

    # -- read path -------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_frames

    def _load_chunk(self, chunk_index: int) -> np.ndarray:
        """The chunk's float32 frames, cached or just inflated."""
        key = str(chunk_index)
        data = self._chunks.get(key)
        if data is None:
            # Inflate outside the cache's lock, so hits never wait on it;
            # a reader that waited here finds what its predecessor put.
            with self._inflate_lock:
                data = self._chunks.get(key)
                if data is None:
                    path = self._chunk_path(chunk_index)
                    if not os.path.exists(path):
                        raise StoreError(f"missing chunk file {path} (unflushed frames?)")
                    data = load_npz(path)["frames"]
                    self._chunks.put(key, data)
        return data

    def read(self, frame: int) -> VectorField2D:
        """Random access to any frame: a fresh, writable float64 copy."""
        if not (0 <= frame < self.n_frames):
            raise StoreError(f"frame {frame} out of range [0, {self.n_frames})")
        chunk_index, offset = divmod(frame, self.frames_per_chunk)
        # Frames still buffered in memory:
        n_flushed = self.n_frames - len(self._pending)
        if frame >= n_flushed:
            data = self._pending[frame - n_flushed]
            return VectorField2D(self.grid, np.asarray(data, dtype=np.float64))
        chunk = self._load_chunk(chunk_index)
        return VectorField2D(self.grid, np.array(chunk[offset], dtype=np.float64))

    def nbytes_on_disk(self) -> int:
        """Total chunk bytes — the 'terabytes' metric, at laptop scale."""
        total = 0
        for name in os.listdir(self.directory):
            if name.startswith("chunk_"):
                total += os.path.getsize(os.path.join(self.directory, name))
        return total
