"""Resumable pipeline-state checkpoints.

:class:`CheckpointStore` keeps :class:`~repro.anim.state.PipelineState`
snapshots under their content-addressed state digests — a bounded
in-memory tier for hot seeks plus an optional
:class:`~repro.service.cache.DiskBlobStore` tier so a fresh process can
resume a sequence without replaying it from frame 0.  The streaming
service captures one every K frames; a seek restores the nearest
checkpoint at or below the target and replays only the remainder.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.anim.state import PipelineState
from repro.errors import AnimationServiceError
from repro.service.cache import DiskBlobStore


class CheckpointStore:
    """Two-tier store of pipeline-state checkpoints.

    Parameters
    ----------
    max_memory_entries:
        Bound on the in-memory tier (LRU eviction).  Each entry is a few
        ``n_spots``-sized arrays, so a handful suffices for scrubbing.
    disk:
        Optional blob store; when present every put is persisted and
        memory misses fall through to disk with promotion.
    """

    def __init__(self, max_memory_entries: int = 16, disk: Optional[DiskBlobStore] = None):
        if max_memory_entries < 0:
            raise AnimationServiceError(
                f"max_memory_entries must be >= 0, got {max_memory_entries}"
            )
        self.max_memory_entries = int(max_memory_entries)
        self.disk = disk
        self._entries: "OrderedDict[str, PipelineState]" = OrderedDict()  #: guarded-by: _lock
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, digest: str, state: PipelineState) -> None:
        with self._lock:
            self._entries.pop(digest, None)
            self._entries[digest] = state
            while len(self._entries) > self.max_memory_entries:
                self._entries.popitem(last=False)
        if self.disk is not None:
            self.disk.put(digest, state.to_arrays())

    def get(self, digest: str) -> Optional[PipelineState]:
        with self._lock:
            state = self._entries.get(digest)
            if state is not None:
                self._entries.move_to_end(digest)
                return state
        if self.disk is not None:
            bundle = self.disk.get(digest)
            if bundle is not None:
                state = PipelineState.from_arrays(bundle)
                with self._lock:
                    # Promotion is an access: pop-then-insert so the
                    # promoted entry lands at the hot end of the LRU
                    # order.  Plain assignment would leave an entry that
                    # raced its way in (another thread's promotion or
                    # put) at its old position — the just-accessed
                    # checkpoint would then be evicted before genuinely
                    # colder ones.  Keep the raced-in object when there
                    # is one: callers may already hold it.
                    raced = self._entries.pop(digest, None)
                    if raced is not None:
                        state = raced
                    self._entries[digest] = state
                    while len(self._entries) > self.max_memory_entries:
                        self._entries.popitem(last=False)
                return state
        return None

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            if digest in self._entries:
                return True
        return self.disk is not None and digest in self.disk
