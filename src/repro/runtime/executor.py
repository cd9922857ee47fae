"""The bounded render-executor bridge.

Renders are CPU-bound divide-and-conquer jobs that must never run on
the event loop; :class:`RenderExecutor` bridges them onto a capped
thread pool via ``loop.run_in_executor`` and keeps the one piece of
accounting the admission path needs: :attr:`active`, the number of
renders whose body has actually *started*.  Admission prices a new
request by the backlog — flights in the system minus flights already
executing — so the counter increments in the pool thread immediately
before the render body runs, never at submission (a queued render is
still backlog).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.errors import ServiceError


class RenderExecutor:
    """Capped thread pool bridged into the event loop.

    Parameters
    ----------
    n_workers:
        Pool size — distinct-render concurrency.  Each worker drives a
        full divide-and-conquer render (which itself fans out over
        :mod:`repro.parallel.backends`), so the cap trades request
        concurrency against per-render parallelism.
    """

    def __init__(self, n_workers: int, name: str = "render"):
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix=f"{name}-worker"
        )
        self._lock = threading.Lock()
        self._active = 0  #: guarded-by: _lock

    @property
    def active(self) -> int:
        """Renders executing right now (body entered, not yet returned)."""
        with self._lock:
            return self._active

    def _tracked(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        def call() -> Any:
            # Increment in the pool thread, before the body: a render is
            # "executing" the moment a worker picks it up, which is what
            # excludes it from the backlog a new request queues behind.
            with self._lock:
                self._active += 1
            try:
                return fn()
            finally:
                with self._lock:
                    self._active -= 1

        return call

    async def run(self, fn: Callable[[], Any]) -> Any:
        """Run blocking *fn* on the pool; resolves on the calling loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, self._tracked(fn))

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "RenderExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
