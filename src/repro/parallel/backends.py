"""Execution backends for process groups.

The decomposition is backend-agnostic: a backend takes one
structure-shared :class:`~repro.parallel.groups.FrameWork` and returns
one :class:`~repro.parallel.groups.GroupResult` per group, in group
order, through its single work method :meth:`ExecutionBackend.run_frame`.

* :class:`SerialBackend` — reference implementation, zero concurrency.
* :class:`~repro.parallel.sharedmem.SharedMemoryBackend` (name
  ``"sharedmem"``) — the paper's process groups over anonymous shared
  mappings the workers inherit at fork: the field and particle arrays
  are published once per epoch and workers receive only group index
  sets, so nothing heavy is pickled per frame.

The serial backend materialises the frame's per-group
:class:`~repro.parallel.groups.GroupTask` objects (``frame.tasks()``)
and runs :func:`~repro.parallel.groups.render_group` on each; the
shared-memory backend ships the frame's index sets instead.

The shared-memory backend keeps its workers alive across
:meth:`~ExecutionBackend.run_frame` calls so animation frames amortise
worker start-up; runtimes share one process-wide pool
(:func:`~repro.parallel.sharedmem.shared_backend`) so successive
pipelines do too.  The texture service drives one shared backend from
several render worker threads, so the pooled backend's ``run_frame``
executes under its pool lock: concurrent calls serialise (the pool *is*
the parallelism — overlapping two maps on one pool buys nothing) and can
never race a resize or teardown.  The serial backend is stateless and
fully reentrant.

All backends must return results in group order and produce *identical*
numerical output — asserted by the backend-equivalence tests, since spot
independence (section 3) is exactly what makes that possible.
"""

from __future__ import annotations

from typing import List, Tuple

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


#: Names resolvable by :func:`get_backend`, and the backends the planner
#: prices.  ``sharedmem`` loads lazily to keep the import cycle between
#: this module and the shared-memory implementation one-directional.
BACKEND_NAMES: "Tuple[str, ...]" = ("serial", "sharedmem")


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate a backend by name (one of :data:`BACKEND_NAMES`).

    ``"auto"`` is deliberately *not* a backend: it is resolved to a
    concrete (backend, n_groups, partition) triple by the
    :class:`~repro.parallel.planner.DecompositionPlanner` before any
    backend is constructed.
    """
    if name == "serial":
        return SerialBackend()
    if name == "sharedmem":
        from repro.parallel.sharedmem import SharedMemoryBackend

        return SharedMemoryBackend()
    hint = "; backend='auto' must be resolved by the planner first" if name == "auto" else ""
    raise BackendError(f"unknown backend {name!r}; available: {list(BACKEND_NAMES)}{hint}")
