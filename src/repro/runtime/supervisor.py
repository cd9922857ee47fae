"""Continuous drift-driven re-planning: the :class:`PlanSupervisor`.

The supervisor is how a service re-plans live: services register a
``replan() -> bool`` check (:meth:`TextureService.supervise
<repro.service.server.TextureService.supervise>`,
:meth:`AnimationService.supervise
<repro.anim.service.AnimationService.supervise>`), and the supervisor
invokes each at a fixed cadence, off-loop (the checks take a lock and
may build fresh runtimes).  Each check is
:meth:`PlanBinding.replan_if_drifted
<repro.parallel.binding.PlanBinding.replan_if_drifted>`: it folds the
EWMA host-calibration drift stream (:attr:`LatencyPredictor.scale
<repro.service.admission.LatencyPredictor.scale>`) into a
:class:`~repro.parallel.planner.DecompositionPlanner` decision and
publishes any new plan as one immutable snapshot.  In-flight work holds
the snapshot it started under and finishes on it, and a swapped plan
can only ever cost an extra render, never a wrong-keyed cache entry.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional

from repro.errors import ServiceError
from repro.runtime.loop import RuntimeLoop, get_runtime_loop


class PlanSupervisor:
    """Periodic loop task driving registered re-plan checks.

    Parameters
    ----------
    interval_s:
        Check cadence on the spine's monotonic clock.  Each registered
        check runs at most once per interval, serialized with the
        others (re-planning is rare and cheap to check; a storm of
        concurrent re-plans is exactly what this avoids).
    runtime:
        The spine to run on; defaults to the process singleton.
    """

    def __init__(self, interval_s: float = 0.25, runtime: Optional[RuntimeLoop] = None):
        if interval_s <= 0:
            raise ServiceError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = float(interval_s)
        self._runtime = runtime or get_runtime_loop()
        self._watched: Dict[str, Callable[[], Any]] = {}  # loop-confined
        self._task: Optional[asyncio.Task] = None  # loop-confined
        self.checks = 0
        self.replans = 0
        self.errors = 0

    @property
    def runtime(self) -> RuntimeLoop:
        return self._runtime

    # -- registration ----------------------------------------------------------
    def watch(self, name: str, replan: Callable[[], Any]) -> None:
        """Register *replan* under *name* and ensure the task is running.

        *replan* is called off-loop and should return truthy when a new
        plan was adopted (both services' drift checks do).
        """
        self._runtime.call(self._watch_cb, name, replan)

    def _watch_cb(self, name: str, replan: Callable[[], Any]) -> None:
        self._watched[name] = replan
        self._ensure_task()

    # -- the supervision task --------------------------------------------------
    def start(self) -> None:
        self._runtime.call(self._ensure_task)

    def _ensure_task(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._supervise())

    async def _supervise(self) -> None:
        while True:
            await asyncio.sleep(self.interval_s)
            loop = asyncio.get_running_loop()
            for _name, replan in list(self._watched.items()):
                self.checks += 1
                try:
                    changed = await loop.run_in_executor(None, replan)
                except Exception:
                    # A failed check must not kill supervision of the
                    # other services; the counter keeps it observable.
                    self.errors += 1
                    continue
                if changed:
                    self.replans += 1

    def stop(self) -> None:
        """Cancel the supervision task (registrations survive a restart)."""
        self._runtime.call(self._stop_cb)

    def _stop_cb(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "PlanSupervisor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
