"""Two-tier texture cache: in-memory LRU over an optional disk tier.

The memory tier (:class:`LRUTextureCache`) holds rendered textures under
a byte budget with least-recently-used eviction; entries are stored
read-only and returned without copying, so a hit costs a dict lookup.
The disk tier (:class:`DiskTextureCache`) is content-addressed ``.npz``
files — exact float64 round trip, written via a same-directory temp file
and ``os.replace`` so a crash can never leave a half-written texture to
serve.  :class:`TieredTextureCache` stacks the two: memory first, then
disk with promotion back into memory.

Disk entries are written uncompressed (``np.savez``, ``ZIP_STORED``
members): the write sits on the serving miss path, and zlib costs more
there than the bytes it saves are worth.  Measured on a 2-CPU x86-64
host with 500-spot 64² smog textures, a put takes 0.30 ms raw against
0.86 ms deflated and a disk hit 0.22 ms against 0.39 ms; deflate would
shrink such an entry from 33.0 to 14.0 kB (to 5.5 of 18.7 kB at 48², to
116 of 131 kB at 128², where a put costs 5.0 ms deflated and 0.35 ms
raw).  Entries written deflated by older versions still read:
``np.load`` takes both.

All three are thread-safe; the render workers and any number of
client threads may hit them concurrently.
"""

from __future__ import annotations

import os
import threading
import zipfile
import zlib
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.utils.fileio import atomic_write, load_npz

#: Default in-memory budget: 64 MiB ≈ 32 float64 textures at 512².  The
#: memory tier of every service and the field store's decoded chunks.
DEFAULT_MEMORY_BUDGET = 64 << 20


def _freeze(texture: np.ndarray) -> np.ndarray:
    """Copy to a C-ordered read-only array.

    Floating input keeps its precision (the field store caches float32
    chunks at 4 bytes a value); anything else becomes float64.
    """
    dtype = np.asarray(texture).dtype
    if not np.issubdtype(dtype, np.floating):
        dtype = np.float64
    t = np.ascontiguousarray(texture, dtype=dtype)
    if t is texture:
        t = t.copy()
    t.flags.writeable = False
    return t


class LRUTextureCache:
    """In-memory LRU texture cache bounded by a byte budget.

    Parameters
    ----------
    byte_budget:
        Maximum total ``nbytes`` of cached textures.  A single texture
        larger than the budget is simply not admitted (the put is a
        no-op) — evicting the whole cache for one oversized entry would
        trade many future hits for one.
    """

    def __init__(self, byte_budget: int):
        if byte_budget < 0:
            raise ServiceError(f"byte_budget must be >= 0, got {byte_budget}")
        self.byte_budget = int(byte_budget)
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()  #: guarded-by: _lock
        self._nbytes = 0  #: guarded-by: _lock
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._nbytes

    def get(self, digest: str) -> Optional[np.ndarray]:
        """Return the cached texture (read-only, no copy) or ``None``."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
            return entry

    def put(self, digest: str, texture: np.ndarray) -> bool:
        """Insert a texture; returns ``False`` if it exceeds the budget."""
        frozen = _freeze(texture)
        if frozen.nbytes > self.byte_budget:
            return False
        with self._lock:
            old = self._entries.pop(digest, None)
            if old is not None:
                self._nbytes -= old.nbytes
            self._entries[digest] = frozen
            self._nbytes += frozen.nbytes
            while self._nbytes > self.byte_budget:
                _, evicted = self._entries.popitem(last=False)
                self._nbytes -= evicted.nbytes
        return True


class DiskBlobStore:
    """Content-addressed on-disk store of named-array bundles and raw blobs.

    Each array entry is ``<digest>.npz`` holding a ``{name: array}``
    bundle; raw-byte entries (:meth:`put_bytes`, used by the delta
    transport for compressed frame chunks) are ``<digest>.blob``.  All
    writes go through a same-directory temp file and ``os.replace`` so
    readers never observe a partial entry.  A corrupt or truncated file
    (e.g. from a pre-atomic-write era or disk fault) is treated as a
    miss and removed: a bad zip structure, a member failing its CRC and
    a damaged deflate stream alike.

    Bundles are stored uncompressed (``np.savez``): the one codec
    decision for every disk tier built on this store — point-serving
    textures, the animation texture tier and pipeline-state
    checkpoints.  Deflate saves bytes (57% on 64² smog textures) but
    nearly triples a put (0.86 against 0.30 ms) and adds 0.17 ms to
    every hit, and both sit on request paths; see the module docstring
    for the measurements.  Those were taken on point-serving textures
    only: the animation texture tier and the checkpoint tier went raw
    with them unmeasured, since no benchmark workload runs either.
    Deflated entries from older versions are still served.  :class:`DiskTextureCache` is the one-texture
    specialisation; the animation layer's pipeline-state checkpoints and
    delta chunks (:mod:`repro.anim`) use the store directly.

    Nothing evicts entries yet, so the store grows without bound.
    """

    def __init__(self, directory: "str | os.PathLike"):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.npz")

    def _blob_path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.blob")

    def _drop_corrupt(self, path: str, expected_ino: Optional[int] = None) -> None:
        """Remove a corrupt entry — but never a concurrently-replaced one.

        A reader that decided *path* is corrupt races writers: a ``put``
        may have atomically replaced the bad file with a good entry in
        the meantime, and unlinking by name would destroy the new bytes.
        When the reader knows the inode it actually read
        (*expected_ino*), the drop is skipped unless the name still
        refers to that same inode.
        """
        with self._lock:
            try:
                if expected_ino is not None and os.stat(path).st_ino != expected_ino:
                    return  # a writer already replaced it with fresh bytes
                os.unlink(path)
            except OSError:
                return

    def get(self, digest: str) -> "Optional[dict[str, np.ndarray]]":
        path = self._path(digest)
        ino = None
        try:
            with open(path, "rb") as fh:
                # The inode actually read; a replacement racing this
                # read retargets the *name*, never this open handle,
                # and the corrupt-drop below is guarded by it so a
                # concurrent put's fresh bytes survive.
                ino = os.fstat(fh.fileno()).st_ino
                bundle = load_npz(fh)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error):
            if ino is not None:
                # We read the entry and found it corrupt: drop that
                # inode (a failure *opening* is just a miss, not a drop).
                self._drop_corrupt(path, expected_ino=ino)
            return None
        return bundle

    def put(self, digest: str, arrays: "dict[str, np.ndarray]") -> bool:
        payload = {name: np.asarray(a) for name, a in arrays.items()}
        atomic_write(
            self._path(digest),
            lambda fh: np.savez(fh, **payload),
        )
        return True

    # -- raw blobs (delta-transport chunks) --------------------------------------
    def get_bytes(self, digest: str) -> Optional[bytes]:
        """Return the raw payload stored under *digest*, or ``None``."""
        try:
            with open(self._blob_path(digest), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def put_bytes(self, digest: str, payload: bytes) -> bool:
        atomic_write(self._blob_path(digest), lambda fh: fh.write(payload))
        return True

    def contains_bytes(self, digest: str) -> bool:
        return os.path.exists(self._blob_path(digest))

    def __contains__(self, digest: str) -> bool:
        return os.path.exists(self._path(digest))


class MemoryBlobStore:
    """In-memory digest-addressed blob store (the no-disk delta tier).

    The raw-bytes face of :class:`DiskBlobStore` for services configured
    without a disk directory: delta-transport chunks live in a plain
    dict so decode-on-read and the bytes-shipped accounting work the
    same way whether or not a disk tier exists.  Thread-safe.
    """

    def __init__(self):
        self._entries: "Dict[str, bytes]" = {}  #: guarded-by: _lock
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_bytes(self, digest: str) -> Optional[bytes]:
        with self._lock:
            return self._entries.get(digest)

    def put_bytes(self, digest: str, payload: bytes) -> bool:
        with self._lock:
            self._entries[digest] = bytes(payload)
        return True

    def contains_bytes(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def nbytes(self) -> int:
        with self._lock:
            return sum(len(p) for p in self._entries.values())


class DiskTextureCache(DiskBlobStore):
    """Content-addressed on-disk texture tier.

    The one-texture specialisation of :class:`DiskBlobStore`: entries
    are ``{"texture": float64 array}`` bundles, so the two share the
    atomic-write and corrupt-entry contract in one place.
    """

    def get(self, digest: str) -> Optional[np.ndarray]:  # type: ignore[override]
        bundle = super().get(digest)
        if bundle is None:
            return None
        texture = bundle.get("texture")
        if texture is None:
            # A foreign bundle under a texture digest: corrupt for this
            # tier's purposes.
            self._drop_corrupt(self._path(digest))
            return None
        return np.asarray(texture, dtype=np.float64)

    def put(self, digest: str, texture: np.ndarray) -> bool:  # type: ignore[override]
        return super().put(digest, {"texture": np.asarray(texture, dtype=np.float64)})


class TieredTextureCache:
    """Memory tier over an optional disk tier, with promotion on disk hits."""

    def __init__(self, memory: LRUTextureCache, disk: Optional[DiskTextureCache] = None):
        self.memory = memory
        self.disk = disk

    def get(self, digest: str) -> Tuple[Optional[np.ndarray], Optional[str]]:
        """Return ``(texture, tier)``; tier is ``"memory"``, ``"disk"`` or ``None``."""
        texture = self.memory.get(digest)
        if texture is not None:
            return texture, "memory"
        return self.read_disk(digest)

    def read_disk(self, digest: str) -> Tuple[Optional[np.ndarray], Optional[str]]:
        """The disk half of :meth:`get` (blocking): read *digest* from
        the disk tier and promote it to memory."""
        if self.disk is not None:
            texture = self.disk.get(digest)
            if texture is not None:
                self.memory.put(digest, texture)
                return texture, "disk"
        return None, None

    def put(self, digest: str, texture: np.ndarray) -> None:
        self.memory.put(digest, texture)
        if self.disk is not None:
            self.disk.put(digest, texture)
