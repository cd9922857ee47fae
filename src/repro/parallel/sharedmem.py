"""Zero-copy shared-memory process rendering.

:class:`SharedMemoryBackend` is the repo's process backend: the paper's
process groups (one per graphics pipe) with *structure-shared* frame
state.  Rather than pickling the full field plus each group's particle
subset into every worker on every frame, it places the read-mostly
state in anonymous shared mappings (``mmap.mmap(-1, n)``, which is
``MAP_SHARED``) and hands out only group index sets plus epoch tags per
:meth:`run_frame` — share the read-mostly state, copy only what changed:

* the **field** mapping holds the ``(ny, nx, 2)`` vector data; it is
  rewritten only when the frame carries a *different field object*
  (pipeline ``read_data`` swaps the object, so a new data frame bumps
  the field epoch and a static animation ships the field exactly once);
* the **particles** mapping holds the frame's positions/intensities,
  rewritten once per frame (one memcpy, never per group);
* the **indices** mapping holds the concatenated per-group index sets;
* the **out** mapping holds one partial-texture slot per group that
  workers write their result into, so textures come back by memcpy too;
* the **tasks** mapping holds one slot per group: the group's pickled
  message, prefixed by its length.

The mappings are made before the workers fork, and the workers inherit
them.  A mapping has a fixed size: a frame that needs a larger one
stops the workers, remaps at twice the need and forks them again.  The
mappings have no name, so no resource-tracker process starts and no
``/dev/shm`` entry can leak.

Workers are a persistent pool of plain processes, pinned round-robin
to the CPUs the parent may use and each keeping its freed heap (see
:func:`_keep_freed_memory`).  Each caches its
reconstructed field/config *by epoch*: a message whose epoch matches
costs nothing, a bumped epoch (``read_data`` or a config change)
invalidates the resident state and the worker rebuilds it from the
mapping — no restart, no re-fork.  A message carries only offsets,
epochs and the pickled grid/config metadata; the arrays themselves
never travel through a pipe.

A frame is handed to the pool with one doorbell: after writing every
slot, the parent makes a single ``os.write`` of 4-byte slot offsets on
a pipe the backend owns.  A frame of up to ``PIPE_BUF // 4`` groups is
one atomic write, so no worker woken by the first group can delay the
parent before the last group is posted.  Each idle worker blocks
reading one record, renders that slot's group and reports on a result
queue whose reader the parent waits on together with the workers'
sentinels, so a dead worker is noticed the moment it dies, not polled
for.  Workers close every doorbell write end after fork, so the
parent's are the only ones: end-of-file on the doorbell is the shutdown
signal, sent by :meth:`SharedMemoryBackend.close` and equally by the
kernel when the parent dies, even by ``SIGKILL``.

Execution is bit-identical to :class:`~repro.parallel.backends.SerialBackend`:
workers run the same pure :func:`~repro.parallel.groups.render_group` on
arrays that round-trip through shared memory exactly (float64 memcpy),
which the backend-equivalence zoo asserts.

A task failure inside a worker is caught there and reported back; the
pool stays warm and healthy.  Only
infrastructure failures — a worker dying, an interrupt mid-collection —
discard the pool, via ``BaseException`` so a ``KeyboardInterrupt`` can
never leave a desynchronised pool behind; the next pool rings a fresh
doorbell, so no stale record reaches its workers.

A backend built directly owns its pool and :meth:`close` stops it.
Runtimes instead borrow one process-wide pool from
:func:`shared_backend`, so every pipeline of a process reuses the same
warm workers; it is closed at interpreter exit.

The field-epoch cache keys on *object identity*: callers must not
mutate ``field.data`` in place between frames (the pipeline API never
does — ``read_data`` replaces the field object).
"""

from __future__ import annotations

import atexit
import ctypes
import mmap
import multiprocessing
import os
import pickle
import select
import struct
import threading
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SpotNoiseConfig
from repro.errors import BackendError
from repro.fields.vectorfield import VectorField2D
from repro.parallel.backends import ExecutionBackend
from repro.parallel.groups import FrameWork, GroupResult, GroupTask, render_group

_BYTES_F64 = 8
_BYTES_POS = 16  # one (x, y) float64 pair

#: One doorbell record (a slot's byte offset in the tasks mapping) and
#: the length prefix of each slot.
_U32 = struct.Struct("=I")

#: Bytes of doorbell records one ``os.write`` may carry and stay atomic.
_RING_BYTES = select.PIPE_BUF - select.PIPE_BUF % _U32.size

#: Seconds to wait for workers to exit after their doorbell closes.
_JOIN_S = 5.0

#: Write ends of every open doorbell in this process; a worker closes
#: them all after fork, so only the parent can hold a doorbell open.
_bell_writers: "set[int]" = set()

#: glibc ``mallopt`` parameters (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@dataclass(frozen=True)
class _GroupMessage:
    """Everything one worker needs to render one group — no arrays.

    The heavy state travels through the inherited mappings; this message
    is offsets and epochs plus the grid/config metadata blobs, carried
    on every message so a freshly forked worker can always rebuild.  It
    is written pickled into the group's slot of the tasks mapping.
    """

    task_seq: int              # unique per message; results are keyed by it
    frame_epoch: int
    field_epoch: int
    field_shape: Tuple[int, int, int]
    field_meta: bytes          # pickled (grid, boundary)
    config_epoch: int
    config_blob: bytes         # pickled SpotNoiseConfig
    n_particles: int
    idx_start: int
    idx_count: int
    out_offset: int            # bytes into the out mapping
    group_index: int
    fb_size: Tuple[int, int]
    fb_window: Tuple[float, float, float, float]
    n_processors: int
    speed_hint: "float | None"


class _WorkerState:
    """Per-worker epoch-tagged caches over the inherited mappings."""

    def __init__(self, maps: Dict[str, mmap.mmap]) -> None:
        self.maps = maps
        self._field: "Tuple[int, VectorField2D] | None" = None
        self._config: "Tuple[int, SpotNoiseConfig] | None" = None

    def field(self, msg: _GroupMessage) -> VectorField2D:
        cached = self._field
        if cached is not None and cached[0] == msg.field_epoch:
            return cached[1]
        data = np.ndarray(msg.field_shape, dtype=np.float64, buffer=self.maps["field"])
        grid, boundary = pickle.loads(msg.field_meta)
        field = VectorField2D(grid, data, boundary)
        self._field = (msg.field_epoch, field)
        return field

    def config(self, msg: _GroupMessage) -> SpotNoiseConfig:
        cached = self._config
        if cached is not None and cached[0] == msg.config_epoch:
            return cached[1]
        config = pickle.loads(msg.config_blob)
        self._config = (msg.config_epoch, config)
        return config


def _run_group(msg: _GroupMessage, state: _WorkerState) -> tuple:
    """Execute one group in a worker; returns the result-message tail."""
    field = state.field(msg)
    config = state.config(msg)
    part = state.maps["particles"]
    positions = np.ndarray((msg.n_particles, 2), dtype=np.float64, buffer=part)
    intensities = np.ndarray(
        (msg.n_particles,), dtype=np.float64, buffer=part,
        offset=msg.n_particles * _BYTES_POS,
    )
    idx = np.ndarray(
        (msg.idx_count,), dtype=np.int64, buffer=state.maps["indices"],
        offset=msg.idx_start * _BYTES_F64,
    )
    task = GroupTask(
        group_index=msg.group_index,
        positions=positions[idx],
        intensities=intensities[idx],
        field=field,
        config=config,
        fb_size=msg.fb_size,
        fb_window=msg.fb_window,
        n_processors=msg.n_processors,
        speed_hint=msg.speed_hint,
    )
    result = render_group(task)
    out = np.ndarray(
        result.texture.shape, dtype=np.float64, buffer=state.maps["out"],
        offset=msg.out_offset,
    )
    out[:] = result.texture
    return (
        msg.task_seq,
        result.counters,
        result.n_spots,
        result.n_vertices,
        result.texture.shape,
    )


def _keep_freed_memory() -> None:
    """Make glibc keep freed blocks in this worker's heap.

    A group render allocates and frees megabytes of numpy scratch.  By
    default glibc maps such blocks fresh and unmaps them on free, so a
    worker took ~1000 minor page faults per frame on a 128² ``steer``
    group.  A worker is a process this module owns, so it may keep its
    heap; elsewhere (musl, macOS) this is a no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # pragma: no cover - not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's ceiling on 64-bit
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _worker_main(bell: int, result_q, maps) -> None:
    """Worker loop: render the slot of each doorbell record until EOF."""
    for fd in _bell_writers:
        os.close(fd)
    _keep_freed_memory()
    state = _WorkerState(maps)
    tasks = maps["tasks"]
    while True:
        # Every ring is a whole number of records written atomically, so
        # a read returns one whole record, or nothing at end-of-file.
        record = os.read(bell, _U32.size)
        if not record:
            return
        (offset,) = _U32.unpack(record)
        (size,) = _U32.unpack_from(tasks, offset)
        start = offset + _U32.size
        msg = pickle.loads(tasks[start : start + size])
        try:
            tail = _run_group(msg, state)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            # Ship the failure as plain strings: always picklable, so
            # a weird exception type can never wedge the result queue.
            result_q.put(
                ("err", msg.task_seq, msg.group_index, type(exc).__name__, str(exc))
            )
        else:
            result_q.put(("ok",) + tail)


class SharedMemoryBackend(ExecutionBackend):
    """Persistent process pool over shared-memory frame state.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` grows to the high-water group count (workers
        are added, never torn down).
    """

    name = "sharedmem"

    def __init__(self, max_workers: "int | None" = None):
        if max_workers is not None and max_workers < 1:
            raise BackendError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._ctx = multiprocessing.get_context("fork")
        self._pool_lock = threading.Lock()
        self._workers: "List[multiprocessing.Process]" = []  #: guarded-by: _pool_lock
        self._bell: "Tuple[int, int] | None" = None  #: guarded-by: _pool_lock
        self._result_q = None  #: guarded-by: _pool_lock
        self._maps: Dict[str, mmap.mmap] = {}  #: guarded-by: _pool_lock
        self._frame_epoch = 0  #: guarded-by: _pool_lock
        self._field_epoch = 0  #: guarded-by: _pool_lock
        self._last_field: Optional[VectorField2D] = None  #: guarded-by: _pool_lock
        self._field_meta = b""  #: guarded-by: _pool_lock
        self._config_epoch = 0  #: guarded-by: _pool_lock
        self._last_config: Optional[SpotNoiseConfig] = None  #: guarded-by: _pool_lock
        self._config_blob = b""  #: guarded-by: _pool_lock
        self._closed = False  #: guarded-by: _pool_lock

    # -- pool management -------------------------------------------------------
    def _ensure_pool_locked(self, n_groups: int, needs: Dict[str, int]) -> None:
        """Grow the mappings to *needs* bytes per role, then the pool."""
        small = [role for role, n in needs.items()
                 if role not in self._maps or len(self._maps[role]) < n]
        if small:
            # Workers see only the mappings they were forked with.
            self._stop_workers_locked()
            for role in small:
                self._maps[role] = mmap.mmap(-1, 2 * max(needs[role], 1))
            if "field" in small:
                self._last_field = None  # republish into the new mapping
        if self._bell is None:
            self._bell = os.pipe()
            _bell_writers.add(self._bell[1])
            self._result_q = self._ctx.SimpleQueue()
        size = self.max_workers or n_groups
        while len(self._workers) < size:
            worker = self._ctx.Process(
                target=_worker_main,
                args=(self._bell[0], self._result_q, self._maps),
                name=f"sharedmem-worker-{len(self._workers)}",
                daemon=True,
            )
            worker.start()
            # Spread the pool over the allowed CPUs: a forked worker can
            # otherwise stay on its parent's CPU for its whole life.
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(worker.pid, {cpus[len(self._workers) % len(cpus)]})
            self._workers.append(worker)

    def _close_channels_locked(self) -> None:
        """Close the doorbell (EOF to every worker) and the result queue."""
        if self._bell is not None:
            read_end, write_end = self._bell
            _bell_writers.discard(write_end)
            os.close(write_end)
            os.close(read_end)
            self._result_q.close()
        # Records a dead worker never took must not reach its successor.
        self._bell = None
        self._result_q = None

    def _stop_workers_locked(self) -> None:
        """Close the doorbell and join every worker."""
        self._close_channels_locked()
        for worker in self._workers:
            worker.join(timeout=_JOIN_S)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=_JOIN_S)
        self._workers = []

    def _discard_pool_locked(self) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=_JOIN_S)
        self._workers = []
        # Terminated workers may have died holding the result queue's
        # lock or left records unread: the next pool gets fresh channels.
        self._close_channels_locked()
        # Worker epoch caches died with the pool, but the parent-side
        # epochs stay valid: messages always carry enough to rebuild.

    # -- epoch bookkeeping -----------------------------------------------------
    def _publish_config_locked(self, config: SpotNoiseConfig) -> None:
        if self._last_config == config:
            return
        self._config_epoch += 1
        self._config_blob = pickle.dumps(config)
        self._last_config = config

    def _publish_frame_locked(self, frame: FrameWork) -> "Tuple[List[_GroupMessage], List[int]]":
        """Write the frame into the mappings (growing them and the pool
        as needed); return one message per group and its slot offset."""
        n = frame.positions.shape[0]
        counts = [int(spec.indices.size) for spec in frame.groups]
        starts = np.concatenate([[0], np.cumsum(counts)]).tolist()
        sizes = [spec.fb_size[0] * spec.fb_size[1] * _BYTES_F64 for spec in frame.groups]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        self._frame_epoch += 1
        if self._last_field is not frame.field:  # a new field object: a new epoch
            self._field_epoch += 1
            self._field_meta = pickle.dumps((frame.field.grid, frame.field.boundary))
        self._publish_config_locked(frame.config)
        messages = [
            _GroupMessage(
                task_seq=g,
                frame_epoch=self._frame_epoch,
                field_epoch=self._field_epoch,
                field_shape=tuple(frame.field.data.shape),
                field_meta=self._field_meta,
                config_epoch=self._config_epoch,
                config_blob=self._config_blob,
                n_particles=n,
                idx_start=starts[g],
                idx_count=counts[g],
                out_offset=offsets[g],
                group_index=spec.group_index,
                fb_size=spec.fb_size,
                fb_window=spec.fb_window,
                n_processors=spec.n_processors,
                speed_hint=frame.speed_hint,
            )
            for g, spec in enumerate(frame.groups)
        ]
        blobs = [pickle.dumps(msg) for msg in messages]
        slots = np.concatenate([[0], np.cumsum([_U32.size + len(b) for b in blobs])]).tolist()
        self._ensure_pool_locked(len(frame.groups), {
            "field": frame.field.data.nbytes,
            "particles": n * (_BYTES_POS + _BYTES_F64),
            "indices": starts[-1] * _BYTES_F64,
            "out": offsets[-1],
            "tasks": slots[-1],
        })

        if self._last_field is not frame.field:  # new, or its mapping regrown
            view = np.ndarray(
                frame.field.data.shape, dtype=np.float64, buffer=self._maps["field"]
            )
            view[:] = frame.field.data
            # Recorded only once copied: a failed copy must not let the
            # next frame skip it and ship the stale mapping under a new epoch.
            self._last_field = frame.field
        part = self._maps["particles"]
        np.ndarray((n, 2), dtype=np.float64, buffer=part)[:] = frame.positions
        np.ndarray((n,), dtype=np.float64, buffer=part, offset=n * _BYTES_POS)[:] = (
            frame.intensities
        )
        idx_view = np.ndarray((starts[-1],), dtype=np.int64, buffer=self._maps["indices"])
        for spec, start, count in zip(frame.groups, starts, counts):
            idx_view[start : start + count] = spec.indices
        tasks = self._maps["tasks"]
        for blob, slot in zip(blobs, slots):
            _U32.pack_into(tasks, slot, len(blob))
            tasks[slot + _U32.size : slot + _U32.size + len(blob)] = blob
        return messages, slots[:-1]

    def _ring_locked(self, slots: List[int]) -> None:
        """Post every slot to the pool: one atomic write per ``PIPE_BUF``."""
        records = struct.pack(f"={len(slots)}I", *slots)
        for i in range(0, len(records), _RING_BYTES):
            os.write(self._bell[1], records[i : i + _RING_BYTES])

    # -- execution -------------------------------------------------------------
    def _collect_locked(self, expected: int) -> "Tuple[dict, list]":
        """Drain *expected* result messages; errors collected, not raised,
        so the queue is clean for the next frame either way.

        Waits on the result reader and every worker's sentinel at once:
        a sentinel that becomes ready while no result is pending is a
        dead worker.

        Results are keyed by ``task_seq`` (the message's position in the
        frame), not by ``group_index`` — group indices are not required
        to be unique in a task sequence, and keying on a duplicate would
        drop a result and leave this loop waiting forever.
        """
        done: Dict[int, tuple] = {}
        errors: List[str] = []
        reader = self._result_q._reader
        sentinels = {w.sentinel: w.name for w in self._workers}
        while len(done) + len(errors) < expected:
            ready = wait([reader, *sentinels])
            if reader not in ready:
                dead = ", ".join(sentinels[s] for s in ready)
                raise BackendError(f"shared-memory worker(s) died mid-frame: {dead}")
            msg = self._result_q.get()
            if msg[0] == "ok":
                done[msg[1]] = msg[2:]
            else:
                _, _seq, group_index, exc_type, text = msg
                errors.append(f"group {group_index} failed: {exc_type}: {text}")
        return done, errors

    def run_frame(self, frame: FrameWork) -> List[GroupResult]:
        if not frame.groups:
            return []
        with self._pool_lock:
            if self._closed:
                raise BackendError("shared-memory backend is closed")
            try:
                messages, slots = self._publish_frame_locked(frame)
                self._ring_locked(slots)
                done, errors = self._collect_locked(len(messages))
            except BaseException as exc:
                # Infrastructure failure (dead worker, interrupt while
                # publishing or collecting): in-flight messages and
                # results can no longer be accounted for, so the pool is
                # unusable — discard it before propagating.
                self._discard_pool_locked()
                if isinstance(exc, BackendError) or not isinstance(exc, Exception):
                    raise
                raise BackendError(f"shared-memory backend failed: {exc}") from exc
            if errors:
                # Task-level failures: every message was drained, workers
                # are healthy, the pool stays warm for the next frame.
                raise BackendError("; ".join(errors))
            out = self._maps["out"]
            results: List[GroupResult] = []
            for msg in messages:
                counters, n_spots, n_vertices, shape = done[msg.task_seq]
                view = np.ndarray(shape, dtype=np.float64, buffer=out, offset=msg.out_offset)
                results.append(
                    GroupResult(
                        group_index=msg.group_index,
                        texture=view.copy(),
                        counters=counters,
                        n_spots=n_spots,
                        n_vertices=n_vertices,
                    )
                )
            return results

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            self._stop_workers_locked()
            # Unmapped once the last view is gone; nothing is named.
            self._maps = {}
            self._last_field = None
            self._last_config = None


_shared: Optional[SharedMemoryBackend] = None
_shared_pid = 0
_shared_lock = threading.Lock()


def _close_shared() -> None:
    # A child forked with os.fork inherits this hook: leave the parent's pool alone.
    if _shared is not None and _shared_pid == os.getpid():
        _shared.close()


def shared_backend() -> SharedMemoryBackend:
    """The process-wide pool every runtime-owned ``sharedmem`` backend borrows.

    Made on first use with one worker per CPU; closed (doorbell EOF and
    a join) at interpreter exit, never by a runtime.  A forked child gets
    a pool of its own.
    """
    global _shared, _shared_pid
    with _shared_lock:
        if _shared is None or _shared_pid != os.getpid():
            if _shared is None:
                atexit.register(_close_shared)
            _shared = SharedMemoryBackend(max_workers=os.cpu_count())
            _shared_pid = os.getpid()
        return _shared
