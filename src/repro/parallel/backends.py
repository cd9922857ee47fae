"""Execution backends for process groups.

The decomposition is backend-agnostic: a backend takes one
structure-shared :class:`~repro.parallel.groups.FrameWork` and returns
one :class:`~repro.parallel.groups.GroupResult` per group, in group
order, through its single work method :meth:`ExecutionBackend.run_frame`.

* :class:`SerialBackend` — reference implementation, zero concurrency.
* :class:`ThreadBackend` — a thread per group; numpy releases the GIL in
  its inner loops, so groups overlap where it matters.
* :class:`~repro.parallel.sharedmem.SharedMemoryBackend` (name
  ``"sharedmem"``) — the paper's process groups over anonymous shared
  mappings the workers inherit at fork: the field and particle arrays
  are published once per epoch and workers receive only group index
  sets, so nothing heavy is pickled per frame.

The serial and thread backends materialise the frame's per-group
:class:`~repro.parallel.groups.GroupTask` objects (``frame.tasks()``)
and run :func:`~repro.parallel.groups.render_group` on each; the
shared-memory backend ships the frame's index sets instead.

The pooled backends keep their workers alive across
:meth:`~ExecutionBackend.run_frame` calls so animation frames amortise
worker start-up; runtimes share one process-wide ``sharedmem`` pool
(:func:`~repro.parallel.sharedmem.shared_backend`) so successive
pipelines do too.  The texture service drives one shared backend from
several render worker threads, so a pooled backend's ``run_frame``
executes under its pool lock: concurrent calls serialise (the pool *is*
the parallelism — overlapping two maps on one pool buys nothing) and can
never race a resize or teardown.  The serial backend is stateless and
fully reentrant.

All backends must return results in group order and produce *identical*
numerical output — asserted by the backend-equivalence tests, since spot
independence (section 3) is exactly what makes that possible.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Type

from repro.errors import BackendError
from repro.parallel.groups import FrameWork, GroupResult, render_group


class ExecutionBackend:
    """Interface: render one frame's groups, return results in group order."""

    name: str = "abstract"

    def run_frame(self, frame: FrameWork) -> List[GroupResult]:
        """Execute one structure-shared frame of group work."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled workers (no-op by default)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run every group in the calling thread, in order."""

    name = "serial"

    def run_frame(self, frame: FrameWork) -> List[GroupResult]:
        return [render_group(t) for t in frame.tasks()]


class ThreadBackend(ExecutionBackend):
    """One thread per group (bounded by *max_workers*).

    The executor persists across frames and *grows in place* to the
    high-water group count when ``max_workers`` is ``None``: raising the
    executor's worker bound keeps every warm thread (a
    ``ThreadPoolExecutor`` only spawns threads on demand up to that
    bound), so a frame that needs more groups than the last one neither
    stalls on a ``shutdown(wait=True)`` nor discards warm workers.  A
    task exception propagates to the caller but leaves the executor
    usable — threads do not die with the task.
    """

    name = "thread"

    def __init__(self, max_workers: "int | None" = None):
        if max_workers is not None and max_workers < 1:
            raise BackendError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool: "ThreadPoolExecutor | None" = None  #: guarded-by: _pool_lock
        self._pool_size = 0  #: guarded-by: _pool_lock
        self._pool_lock = threading.Lock()

    def _ensure_pool_locked(self, n: int) -> ThreadPoolExecutor:
        size = self.max_workers or n
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=size)
            self._pool_size = size
        elif self._pool_size < size:
            # Grow to the new high-water mark without tearing the
            # executor down: existing threads stay warm and the extra
            # ones are spawned lazily by the executor itself.
            self._pool._max_workers = size
            self._pool_size = size
        return self._pool

    def run_frame(self, frame: FrameWork) -> List[GroupResult]:
        tasks = frame.tasks()
        if not tasks:
            return []
        with self._pool_lock:
            pool = self._ensure_pool_locked(len(tasks))
            return list(pool.map(render_group, tasks))

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_size = 0


_BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
}

#: Names resolvable by :func:`get_backend` (``sharedmem`` loads lazily to
#: keep the import cycle between this module and the shared-memory
#: implementation one-directional).
BACKEND_NAMES = ("serial", "thread", "sharedmem")


def get_backend(name: str, **kwargs) -> ExecutionBackend:
    """Instantiate a backend by name (one of :data:`BACKEND_NAMES`).

    ``"auto"`` is deliberately *not* a backend: it is resolved to a
    concrete (backend, n_groups, partition) triple by the
    :class:`~repro.parallel.planner.DecompositionPlanner` before any
    backend is constructed.
    """
    if name == "sharedmem":
        from repro.parallel.sharedmem import SharedMemoryBackend

        return SharedMemoryBackend(**kwargs)
    try:
        cls = _BACKENDS[name]
    except KeyError:
        hint = "; backend='auto' must be resolved by the planner first" if name == "auto" else ""
        raise BackendError(
            f"unknown backend {name!r}; available: {sorted(BACKEND_NAMES)}{hint}"
        ) from None
    return cls(**kwargs)
