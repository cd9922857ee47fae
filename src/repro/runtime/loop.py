"""The process-wide event loop and its cross-thread shims.

:class:`RuntimeLoop` owns one asyncio loop on a dedicated daemon
thread.  Everything above it — schedulers, streams, cluster sockets
— schedules work onto that loop and keeps its
coordination state *loop-confined*: touched only from loop callbacks,
so it needs no locks.  Thread-world callers (the blocking public APIs)
cross over with :meth:`run` (await a coroutine) or :meth:`call` (run a
plain function on the loop thread); both are
``run_coroutine_threadsafe`` shims and both refuse to run *on* the loop
thread, where blocking on the loop's own result would deadlock.

:func:`get_runtime_loop` hands out the process-wide singleton.  The
shared-memory backend forks its workers, and a forked child inherits a loop whose
thread does not exist there — an ``at_fork`` hook drops the handle so
the child lazily builds its own spine.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import threading
from typing import Any, Callable, Coroutine, Optional, TypeVar

from repro.errors import ServiceError

T = TypeVar("T")


class RuntimeLoop:
    """One asyncio event loop on a dedicated daemon thread.

    Parameters
    ----------
    name:
        Thread name (observability; the default is the process spine).
    """

    def __init__(self, name: str = "repro-runtime"):
        self.name = name
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._main, name=name, daemon=True)
        self._thread.start()
        self._started.wait()

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        try:
            self._loop.run_forever()
            # Shutdown: cancel whatever is still pending and give it one
            # final spin to unwind before the loop closes.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            self._loop.close()

    # -- introspection ---------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._thread.is_alive() and not self._loop.is_closed()

    def in_loop_thread(self) -> bool:
        return threading.current_thread() is self._thread

    # -- crossing into the loop ------------------------------------------------
    def submit(self, coro: "Coroutine[Any, Any, T]") -> "concurrent.futures.Future[T]":
        """Schedule *coro* on the loop; returns a concurrent future."""
        if not self.alive:
            coro.close()
            raise ServiceError("runtime loop is shut down")
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def run(self, coro: "Coroutine[Any, Any, T]") -> T:
        """Run *coro* on the loop and block for its result.

        The deadlock guard is load-bearing: a blocking shim invoked from
        the loop thread would wait on a result only the loop thread can
        produce.  Code running on the loop must ``await`` instead.
        """
        if self.in_loop_thread():
            coro.close()
            raise ServiceError(
                "blocking runtime call from the event-loop thread would "
                "deadlock; await the coroutine instead"
            )
        return self.submit(coro).result()

    def call(self, fn: Callable[..., T], *args: Any) -> T:
        """Run plain ``fn(*args)`` on the loop thread; returns its result.

        This is how thread-world code touches loop-confined state: the
        function executes as one loop callback, atomically with respect
        to every other loop callback.
        """

        async def invoke() -> T:
            return fn(*args)

        return self.run(invoke())

    # -- lifecycle -------------------------------------------------------------
    def shutdown(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the loop and join its thread (private loops/tests; the
        process singleton lives for the process)."""
        if not self.alive:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "RuntimeLoop":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


_runtime_lock = threading.Lock()
_runtime: Optional[RuntimeLoop] = None


def get_runtime_loop() -> RuntimeLoop:
    """The process-wide :class:`RuntimeLoop`, created on first use."""
    global _runtime
    with _runtime_lock:
        if _runtime is None or not _runtime.alive:
            _runtime = RuntimeLoop()
        return _runtime


def _reset_after_fork() -> None:
    # A forked child inherits the parent's loop object but not its
    # thread; both the handle and the guard lock (which another parent
    # thread may have held at fork time) must be remade from scratch.
    global _runtime, _runtime_lock
    _runtime = None
    _runtime_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)
