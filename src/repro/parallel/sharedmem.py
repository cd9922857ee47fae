"""Zero-copy shared-memory process rendering.

:class:`SharedMemoryBackend` is the repo's process backend: the paper's
process groups (one per graphics pipe) with *structure-shared* frame
state.  Rather than pickling the full field plus each group's particle
subset into every worker on every frame, it places the read-mostly
state in :mod:`multiprocessing.shared_memory` segments and ships only
group index sets plus epoch tags per :meth:`run_frame` — share the
read-mostly state, copy only what changed:

* the **field** segment holds the ``(ny, nx, 2)`` vector data; it is
  rewritten only when the frame carries a *different field object*
  (pipeline ``read_data`` swaps the object, so a new data frame bumps
  the field epoch and a static animation ships the field exactly once);
* the **particles** segment holds the frame's positions/intensities,
  rewritten once per frame (one memcpy, never per group);
* the **indices** segment holds the concatenated per-group index sets;
* the **out** segment holds one partial-texture slot per group that
  workers write their result into, so textures come back by memcpy too.

Workers are a persistent pool of plain processes.  Each caches its
reconstructed field/config *by epoch*: a task message whose epoch
matches costs nothing, a bumped epoch (``read_data`` or a config
change) invalidates the resident state and the worker rebuilds it from
the segment — no restart, no re-fork.  Task messages carry only the
segment names, offsets, epochs and the tiny pickled grid/config
metadata (<1 KB); the arrays themselves never travel through a pipe.

Execution is bit-identical to :class:`~repro.parallel.backends.SerialBackend`:
workers run the same pure :func:`~repro.parallel.groups.render_group` on
arrays that round-trip through shared memory exactly (float64 memcpy),
which the backend-equivalence zoo asserts.

A task failure inside a worker is caught there and reported back; the
pool stays warm and healthy, like the thread backend.  Only
infrastructure failures — a worker dying, an interrupt mid-collection —
discard the pool, via ``BaseException`` so a ``KeyboardInterrupt`` can
never leave a desynchronised pool behind.

The field-epoch cache keys on *object identity*: callers must not
mutate ``field.data`` in place between frames (the pipeline API never
does — ``read_data`` replaces the field object).
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_mod
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from multiprocessing import shared_memory

from repro.core.config import SpotNoiseConfig
from repro.errors import BackendError
from repro.fields.vectorfield import VectorField2D
from repro.parallel.backends import ExecutionBackend
from repro.parallel.groups import FrameWork, GroupResult, GroupTask, render_group

_BYTES_F64 = 8
_BYTES_POS = 16  # one (x, y) float64 pair

#: Seconds between liveness checks while waiting for group results.
_POLL_S = 0.25

#: Seconds to wait for workers to drain their shutdown sentinel.
_JOIN_S = 5.0


@dataclass(frozen=True)
class _GroupMessage:
    """Everything one worker needs to render one group — no arrays.

    The heavy state travels through the named segments; this message is
    a few hundred bytes of names, offsets and epochs (the grid/config
    metadata blobs are tiny and carried on every message so a worker
    that joined the pool late, or missed an epoch, can always rebuild).
    """

    task_seq: int              # unique per message; results are keyed by it
    frame_epoch: int
    field_epoch: int
    field_name: str
    field_shape: Tuple[int, int, int]
    field_meta: bytes          # pickled (grid, boundary)
    config_epoch: int
    config_blob: bytes         # pickled SpotNoiseConfig
    part_name: str
    n_particles: int
    idx_name: str
    idx_total: int
    idx_start: int
    idx_count: int
    out_name: str
    out_offset: int            # bytes into the out segment
    group_index: int
    fb_size: Tuple[int, int]
    fb_window: Tuple[float, float, float, float]
    n_processors: int
    speed_hint: "float | None"


class _Segment:
    """A growable parent-owned shared-memory buffer.

    Shared-memory segments have a fixed size, so growth recreates the
    segment under a fresh (auto-generated) name; workers notice the name
    change in the next task message and re-attach.  Old mappings held by
    workers stay valid until they close them — ``unlink`` only removes
    the name.
    """

    def __init__(self) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = None

    def ensure(self, nbytes: int) -> shared_memory.SharedMemory:
        nbytes = max(int(nbytes), 1)
        if self.shm is None or self.shm.size < nbytes:
            self.close()
            self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
        return self.shm

    def close(self) -> None:
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self.shm = None


class _WorkerState:
    """Per-worker caches: segment attachments and epoch-tagged state."""

    def __init__(self) -> None:
        self.attached: Dict[str, shared_memory.SharedMemory] = {}
        self.role_names: Dict[str, str] = {}
        self._field: "Tuple[int, str, VectorField2D] | None" = None
        self._config: "Tuple[int, SpotNoiseConfig] | None" = None

    def attach(self, role: str, name: str) -> shared_memory.SharedMemory:
        old = self.role_names.get(role)
        if old is not None and old != name:
            stale = self.attached.pop(old, None)
            if stale is not None:
                stale.close()
        shm = self.attached.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            self.attached[name] = shm
        self.role_names[role] = name
        return shm

    def field(self, msg: _GroupMessage) -> VectorField2D:
        cached = self._field
        if cached is not None and cached[0] == msg.field_epoch and cached[1] == msg.field_name:
            return cached[2]
        shm = self.attach("field", msg.field_name)
        data = np.ndarray(msg.field_shape, dtype=np.float64, buffer=shm.buf)
        grid, boundary = pickle.loads(msg.field_meta)
        field = VectorField2D(grid, data, boundary)
        self._field = (msg.field_epoch, msg.field_name, field)
        return field

    def config(self, msg: _GroupMessage) -> SpotNoiseConfig:
        cached = self._config
        if cached is not None and cached[0] == msg.config_epoch:
            return cached[1]
        config = pickle.loads(msg.config_blob)
        self._config = (msg.config_epoch, config)
        return config

    def close(self) -> None:
        for shm in self.attached.values():
            shm.close()
        self.attached.clear()
        self.role_names.clear()
        self._field = None
        self._config = None


def _run_group(msg: _GroupMessage, state: _WorkerState) -> tuple:
    """Execute one group in a worker; returns the result-message tail."""
    field = state.field(msg)
    config = state.config(msg)
    part = state.attach("particles", msg.part_name)
    positions = np.ndarray((msg.n_particles, 2), dtype=np.float64, buffer=part.buf)
    intensities = np.ndarray(
        (msg.n_particles,), dtype=np.float64, buffer=part.buf,
        offset=msg.n_particles * _BYTES_POS,
    )
    idx_shm = state.attach("indices", msg.idx_name)
    indices = np.ndarray((msg.idx_total,), dtype=np.int64, buffer=idx_shm.buf)
    idx = indices[msg.idx_start : msg.idx_start + msg.idx_count]
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
    out_shm = state.attach("out", msg.out_name)
    out = np.ndarray(
        result.texture.shape, dtype=np.float64, buffer=out_shm.buf,
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


def _worker_main(task_q, result_q) -> None:
    """Worker loop: pull group messages until the ``None`` sentinel."""
    state = _WorkerState()
    try:
        while True:
            msg = task_q.get()
            if msg is None:
                return
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
    finally:
        state.close()


class SharedMemoryBackend(ExecutionBackend):
    """Persistent process pool over shared-memory frame state.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` grows to the high-water group count (workers
        are added, never torn down, mirroring the thread backend).
    """

    name = "sharedmem"

    def __init__(self, max_workers: "int | None" = None):
        if max_workers is not None and max_workers < 1:
            raise BackendError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = multiprocessing.get_context()
        self._pool_lock = threading.Lock()
        self._workers: "List[multiprocessing.Process]" = []  #: guarded-by: _pool_lock
        self._task_q = None  #: guarded-by: _pool_lock
        self._result_q = None  #: guarded-by: _pool_lock
        self._segments: Dict[str, _Segment] = {  #: guarded-by: _pool_lock
            role: _Segment() for role in ("field", "particles", "indices", "out")
        }
        self._frame_epoch = 0  #: guarded-by: _pool_lock
        self._field_epoch = 0  #: guarded-by: _pool_lock
        self._last_field: Optional[VectorField2D] = None  #: guarded-by: _pool_lock
        self._field_meta = b""  #: guarded-by: _pool_lock
        self._config_epoch = 0  #: guarded-by: _pool_lock
        self._last_config: Optional[SpotNoiseConfig] = None  #: guarded-by: _pool_lock
        self._config_blob = b""  #: guarded-by: _pool_lock
        self._closed = False  #: guarded-by: _pool_lock

    # -- pool management -------------------------------------------------------
    def _ensure_pool_locked(self, n_groups: int) -> None:
        if self._closed:
            raise BackendError("shared-memory backend is closed")
        size = self.max_workers or n_groups
        if self._task_q is None:
            # Start the parent's resource tracker *before* forking: the
            # workers then inherit it, so their attach-side segment
            # registrations land in the same tracker the parent's
            # unlink() unregisters from.  A worker that forked without a
            # tracker would lazily start its own and mis-report the
            # parent's segments as leaked at shutdown.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - tracker is an optimisation
                pass
            self._task_q = self._ctx.SimpleQueue()
            self._result_q = self._ctx.Queue()
        while len(self._workers) < size:
            worker = self._ctx.Process(
                target=_worker_main,
                args=(self._task_q, self._result_q),
                name=f"sharedmem-worker-{len(self._workers)}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)

    def _discard_pool_locked(self) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=_JOIN_S)
        self._workers = []
        # Terminated workers may have died holding a queue lock; fresh
        # queues come with the next pool.
        self._task_q = None
        self._result_q = None
        # Worker epoch caches died with the pool, but the parent-side
        # epochs stay valid: messages always carry enough to rebuild.

    @property
    def pool_size(self) -> int:
        with self._pool_lock:
            return len(self._workers)

    # -- epoch bookkeeping -----------------------------------------------------
    def _publish_field_locked(self, field: VectorField2D) -> None:
        if self._last_field is field:
            return
        self._field_epoch += 1
        self._field_meta = pickle.dumps((field.grid, field.boundary))
        shm = self._segments["field"].ensure(field.data.nbytes)
        view = np.ndarray(field.data.shape, dtype=np.float64, buffer=shm.buf)
        view[:] = field.data
        # Recorded only once published: a failed publish must not let the
        # next frame skip it and ship the stale segment under a new epoch.
        self._last_field = field

    def _publish_config_locked(self, config: SpotNoiseConfig) -> None:
        if self._last_config == config:
            return
        self._config_epoch += 1
        self._config_blob = pickle.dumps(config)
        self._last_config = config

    def _publish_frame_locked(self, frame: FrameWork) -> "Tuple[list, list]":
        """Write the frame's arrays into the segments; return messages
        and per-group (offset, shape-capacity) output slots."""
        self._frame_epoch += 1
        self._publish_field_locked(frame.field)
        self._publish_config_locked(frame.config)

        n = frame.positions.shape[0]
        part = self._segments["particles"].ensure(n * (_BYTES_POS + _BYTES_F64))
        pos_view = np.ndarray((n, 2), dtype=np.float64, buffer=part.buf)
        pos_view[:] = frame.positions
        int_view = np.ndarray((n,), dtype=np.float64, buffer=part.buf, offset=n * _BYTES_POS)
        int_view[:] = frame.intensities

        counts = [int(spec.indices.size) for spec in frame.groups]
        total_idx = sum(counts)
        idx_seg = self._segments["indices"].ensure(total_idx * _BYTES_F64)
        idx_view = np.ndarray((total_idx,), dtype=np.int64, buffer=idx_seg.buf)
        starts = []
        cursor = 0
        for spec, count in zip(frame.groups, counts):
            idx_view[cursor : cursor + count] = spec.indices
            starts.append(cursor)
            cursor += count

        offsets = []
        out_bytes = 0
        for spec in frame.groups:
            offsets.append(out_bytes)
            out_bytes += spec.fb_size[0] * spec.fb_size[1] * _BYTES_F64
        out_seg = self._segments["out"].ensure(out_bytes)

        field_shm = self._segments["field"].shm
        messages = [
            _GroupMessage(
                task_seq=g,
                frame_epoch=self._frame_epoch,
                field_epoch=self._field_epoch,
                field_name=field_shm.name,
                field_shape=tuple(frame.field.data.shape),
                field_meta=self._field_meta,
                config_epoch=self._config_epoch,
                config_blob=self._config_blob,
                part_name=part.name,
                n_particles=n,
                idx_name=idx_seg.name,
                idx_total=total_idx,
                idx_start=starts[g],
                idx_count=counts[g],
                out_name=out_seg.name,
                out_offset=offsets[g],
                group_index=spec.group_index,
                fb_size=spec.fb_size,
                fb_window=spec.fb_window,
                n_processors=spec.n_processors,
                speed_hint=frame.speed_hint,
            )
            for g, spec in enumerate(frame.groups)
        ]
        return messages, offsets

    # -- execution -------------------------------------------------------------
    def _collect_locked(self, expected: int) -> "Tuple[dict, list]":
        """Drain *expected* result messages; errors collected, not raised,
        so the queue is clean for the next frame either way.

        Results are keyed by ``task_seq`` (the message's position in the
        frame), not by ``group_index`` — group indices are not required
        to be unique in a task sequence, and keying on a duplicate would
        drop a result and leave this loop waiting forever.
        """
        done: Dict[int, tuple] = {}
        errors: List[str] = []
        while len(done) + len(errors) < expected:
            try:
                msg = self._result_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                dead = [w.name for w in self._workers if not w.is_alive()]
                if dead:
                    raise BackendError(
                        f"shared-memory worker(s) died mid-frame: {', '.join(dead)}"
                    )
                continue
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
            self._ensure_pool_locked(len(frame.groups))
            try:
                messages, _ = self._publish_frame_locked(frame)
                for msg in messages:
                    self._task_q.put(msg)
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
            out_shm = self._segments["out"].shm
            results: List[GroupResult] = []
            for msg in messages:
                counters, n_spots, n_vertices, shape = done[msg.task_seq]
                view = np.ndarray(
                    shape, dtype=np.float64, buffer=out_shm.buf, offset=msg.out_offset
                )
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
            if self._task_q is not None:
                try:
                    for _ in self._workers:
                        self._task_q.put(None)
                except (OSError, ValueError):  # pragma: no cover - queue gone
                    pass
            for worker in self._workers:
                worker.join(timeout=_JOIN_S)
            for worker in self._workers:
                if worker.is_alive():  # pragma: no cover - stuck worker
                    worker.terminate()
                    worker.join(timeout=_JOIN_S)
            self._workers = []
            self._task_q = None
            self._result_q = None
            for segment in self._segments.values():
                segment.close()
            self._last_field = None
            self._last_config = None
