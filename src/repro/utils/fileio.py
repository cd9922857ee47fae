"""Atomic file writes and thread-safe ``.npz`` reads.

One implementation of the write-to-temp-then-``os.replace`` dance shared
by image IO and the serving disk cache: readers never observe a partial
file, an interrupted write leaves the destination untouched, and the
final file carries normal umask-derived permissions (``mkstemp`` creates
0600 temp files, which must not leak onto the destination — a cache
directory is often read by other processes/users).

:func:`load_npz` is the one way the library reads an ``.npz`` archive.
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import BinaryIO, Callable, Dict, Union

import numpy as np

PathLike = Union[str, os.PathLike]

# Process umask, read once (os.umask can only be read by setting it, a
# process-global operation that is not thread-safe mid-run).
_umask = os.umask(0)
os.umask(_umask)


def atomic_write(path: PathLike, writer: Callable[[BinaryIO], None]) -> None:
    """Call ``writer(fh)`` on a same-directory temp file, then rename.

    On any failure the temp file is removed and *path* is untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", dir=directory)
    try:
        os.fchmod(fd, 0o666 & ~_umask)
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: PathLike, payload: bytes) -> None:
    """Atomically write *payload* to *path*."""
    atomic_write(path, lambda fh: fh.write(payload))


#: Serialises every ``.npz`` read in the process.  numpy parses each
#: member's ``.npy`` header with ``ast.literal_eval``, and on CPython
#: 3.11 two threads parsing at once can fail with ``SystemError: AST
#: constructor recursion depth mismatch``.
_npz_lock = threading.Lock()


def load_npz(file: "PathLike | BinaryIO") -> Dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive *file* (a path or an open
    binary handle), read under one process-wide lock."""
    with _npz_lock:
        with np.load(file, allow_pickle=False) as archive:
            return {name: np.asarray(archive[name]) for name in archive.files}
