"""One re-plannable decomposition, shared by both serving front ends.

:class:`PlanBinding` holds a service's current plan as one immutable
:class:`PlanSnapshot`, re-plans it when the host's calibration drifts,
and closes each superseded resource once its last holder lets go.
:class:`PlanBound` gives both services the same public face over it.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.config import SpotNoiseConfig
from repro.errors import ServiceError
from repro.fields.vectorfield import VectorField2D
from repro.machine.workload import workload_from_config
from repro.parallel.planner import DecompositionPlan, DecompositionPlanner
from repro.parallel.runtime import spatial_feasibility

#: Re-plan when the calibration scale leaves ``[1/d, d]`` times the scale
#: the current plan was priced at.
REPLAN_DRIFT = 2.0


@dataclass(frozen=True, eq=False)
class PlanSnapshot:
    """One plan with the resolved config, its fingerprint and the resource
    that renders under it (``plan`` is ``None`` for a concrete backend)."""

    plan: Optional[DecompositionPlan]
    config: SpotNoiseConfig
    fingerprint: str
    resource: Any


class PlanBinding:
    """The current plan snapshot, its re-planning, and refcounted retirement.

    A re-plan builds a whole new snapshot and swaps it in under one lock,
    so no reader can see one plan's fingerprint beside another plan's
    resource.  Every holder of a snapshot — a request, a prefetch, a
    queued render, a stream cursor, a render walk — takes a reference
    with :meth:`acquire` and drops it with :meth:`release`; the binding
    holds one more on its current snapshot.  A resource superseded by a
    re-plan therefore closes exactly once, when its last holder lets go.

    *factory* builds the resource (which must have ``close()``) from a
    resolved config.  With ``backend="auto"``, *field0* prices the
    workload and decides spatial feasibility, *planner* (default
    constructed if absent) plans it, and *predictor* supplies the
    learned calibration ``scale``.
    """

    def __init__(
        self,
        requested: SpotNoiseConfig,
        factory: Callable[[SpotNoiseConfig], Any],
        field0: Optional[VectorField2D] = None,
        planner: Optional[DecompositionPlanner] = None,
        predictor: Any = None,
    ):
        self.requested_config = requested
        self._factory = factory
        self._predictor = predictor
        self._planner: Optional[DecompositionPlanner] = None
        self._lock = threading.Lock()
        self._scale = 1.0  #: guarded-by: _lock
        plan: Optional[DecompositionPlan] = None
        if requested.backend == "auto":
            self._planner = planner or DecompositionPlanner()
            self._workload = workload_from_config(requested, field0)
            self._spatial_ok = spatial_feasibility(requested, field0)
            self._scale = predictor.scale or 1.0
            plan = self._plan_at(self._scale)
        self._current = self._snapshot(plan)  #: guarded-by: _lock
        # Holders per open resource, the binding's own hold included.
        self._refs: Dict[Any, int] = {self._current.resource: 1}  #: guarded-by: _lock
        self.replans = 0  #: guarded-by: _lock
        self._closed = False  #: guarded-by: _lock

    def _plan_at(self, scale: float) -> DecompositionPlan:
        return self._planner.plan(
            self._workload, scale=scale, spatial_ok=self._spatial_ok
        )

    def _snapshot(self, plan: Optional[DecompositionPlan]) -> PlanSnapshot:
        config = self.requested_config if plan is None else plan.apply(self.requested_config)
        return PlanSnapshot(plan, config, config.fingerprint(), self._factory(config))

    @property
    def current(self) -> PlanSnapshot:
        """The current snapshot, *without* a reference: fine for reading
        its plan, config or fingerprint, not for using its resource."""
        with self._lock:
            return self._current

    def acquire(self, held: Optional[PlanSnapshot] = None) -> PlanSnapshot:
        """Take one reference on the current snapshot, or on *held* — a
        snapshot the caller already holds and hands a second reference
        of to another holder (a render walk outliving its starter)."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            snap = self._current if held is None else held
            self._refs[snap.resource] += 1
            return snap

    def release(self, snap: PlanSnapshot) -> None:
        """Drop one reference; the last one closes a retired resource."""
        with self._lock:
            count = self._refs.get(snap.resource)
            if count is None:
                return  # already closed by close()
            if count > 1:
                self._refs[snap.resource] = count - 1
                return
            del self._refs[snap.resource]
        snap.resource.close()

    def replan_if_drifted(self) -> bool:
        """Adopt a new plan if the calibration drifted past :data:`REPLAN_DRIFT`.

        A changed decomposition swaps in a whole new snapshot (fresh
        resource, new fingerprint) and drops the binding's hold on the
        old one.  The same decomposition at a fresher price keeps the
        resource.  Returns ``True`` when a new decomposition was adopted.
        """
        if self._planner is None:
            return False
        scale = self._predictor.scale
        if scale is None:
            return False
        with self._lock:
            if self._closed:
                return False
            drift = scale / self._scale if self._scale > 0 else math.inf
            if 1.0 / REPLAN_DRIFT <= drift <= REPLAN_DRIFT:
                return False
            plan = self._plan_at(scale)
            self._scale = scale
            old = self._current
            if plan.triple == old.plan.triple:
                self._current = dataclasses.replace(old, plan=plan)
                return False
            self._current = self._snapshot(plan)
            self._refs[self._current.resource] = 1
            self.replans += 1
        self.release(old)
        return True

    def supervise(self, supervisor) -> None:
        """Register :meth:`replan_if_drifted` with a
        :class:`~repro.runtime.supervisor.PlanSupervisor`."""
        supervisor.watch(f"plan:{id(self):x}", self.replan_if_drifted)

    def close(self) -> None:
        """Refuse new references and close every resource still open."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            still_open, self._refs = list(self._refs), {}
            # A factory bound to its service would keep the service in a
            # reference cycle; a closed binding never builds again.
            self._factory = None
        for resource in still_open:
            resource.close()


class PlanBound:
    """The plan-facing API of a service that keeps its plan in ``_binding``."""

    _binding: PlanBinding

    @property
    def config(self) -> SpotNoiseConfig:
        """The resolved config (the plan applied, for ``backend="auto"``)."""
        return self._binding.current.config

    @property
    def plan(self) -> Optional[DecompositionPlan]:
        """The resolved decomposition plan (``None`` without auto)."""
        return self._binding.current.plan

    @property
    def replans(self) -> int:
        """Plans adopted since construction."""
        return self._binding.replans

    def replan_if_drifted(self) -> bool:
        """Re-plan if the learned calibration drifted past
        :data:`REPLAN_DRIFT`; ``True`` iff a new decomposition was adopted.

        Config, fingerprint and resource swap together, so old cache
        entries go cold rather than being served as the new plan's bytes;
        work in flight finishes on the snapshot it holds.
        """
        return self._binding.replan_if_drifted()

    def supervise(self, supervisor) -> None:
        """Have a :class:`~repro.runtime.supervisor.PlanSupervisor` call
        :meth:`replan_if_drifted` at its cadence (live re-planning)."""
        self._binding.supervise(supervisor)
