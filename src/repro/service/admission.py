"""Latency prediction and rate limiting.

The machine model already knows how expensive a texture is — the same
per-unit costs that reproduce Tables 1 and 2 price a request here.
:class:`LatencyPredictor` turns a config + grid shape into a closed-form
cost estimate via :func:`repro.machine.workload.workload_from_config`
and the :class:`~repro.machine.costs.CostModel` helpers, then calibrates
an EWMA scale factor from observed render times (the absolute 1997
constants are decades from this host, but the *structure* — spots,
vertices, pixels — transfers; one scalar bridges the hardware gap).

:class:`TokenBucket` sheds work that exceeds an allotted throughput;
the cluster tier's per-tenant quotas (:mod:`repro.cluster.quotas`) keep
one per tenant and refuse a spent tenant with
:class:`~repro.errors.AdmissionError`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Tuple

from repro.core.config import SpotNoiseConfig
from repro.errors import ServiceError
from repro.fields.vectorfield import VectorField2D
from repro.machine.costs import CostModel
from repro.machine.workload import SpotWorkload, workload_from_config


class LatencyPredictor:
    """Predicts per-render seconds and learns a host calibration online.

    The predictor remembers the last grid shape a caller priced with
    (:meth:`predict`) and reuses it when :meth:`observe` is called
    without one: predicting with the real grid but folding observations
    priced on the documented ``(64, 64)`` fallback would corrupt the
    EWMA scale with a constant bias — every observation's ratio would
    compare seconds measured on the real workload against a raw
    estimate of a different, usually much smaller one.
    """

    def __init__(self, costs: Optional[CostModel] = None, alpha: float = 0.3):
        if not (0.0 < alpha <= 1.0):
            raise ServiceError(f"alpha must be in (0, 1], got {alpha}")
        self.costs = costs or CostModel.onyx2()
        self.alpha = alpha
        self._scale: Optional[float] = None
        self._grid_shape: Optional[Tuple[int, int]] = None
        self._lock = threading.Lock()

    def _raw_estimate(self, workload: SpotWorkload) -> float:
        """Uncalibrated seconds: serial sum of the cost-model stages."""
        c = self.costs
        return (
            c.shape_time(workload.n_spots, workload.total_vertices)
            + c.feed_time(workload.total_vertices)
            + c.pipe_time(workload.total_vertices, workload.total_pixels)
            + c.blend_time(workload.texture_pixels)
        )

    def predict(
        self,
        config: SpotNoiseConfig,
        field: Optional[VectorField2D] = None,
        grid_shape: Optional[Tuple[int, int]] = None,
    ) -> float:
        """Predicted render seconds for *config* on this host.

        Prefers an explicit *grid_shape* (the service caches it from the
        first loaded field) so prediction never forces a data load.  The
        shape actually priced is cached for :meth:`observe`.
        """
        workload = workload_from_config(config, field, grid_shape=grid_shape)
        raw = self._raw_estimate(workload)
        with self._lock:
            self._grid_shape = workload.grid_shape
            scale = self._scale
        return raw * scale if scale is not None else raw

    def observe(self, config: SpotNoiseConfig, actual_s: float,
                grid_shape: Optional[Tuple[int, int]] = None) -> None:
        """Fold one observed render time into the calibration scale.

        *grid_shape* should be the shape the render actually ran on (the
        service threads its cached shape through); when omitted, the
        shape cached by the last :meth:`predict` is used, so an
        observation is always priced against the same workload its
        prediction was — never silently against the (64, 64) fallback
        while predictions used the real grid.
        """
        if actual_s <= 0:
            return
        if grid_shape is None:
            with self._lock:
                grid_shape = self._grid_shape
        raw = self._raw_estimate(
            workload_from_config(config, grid_shape=grid_shape)
        )
        if raw <= 0:
            return
        ratio = actual_s / raw
        with self._lock:
            if self._scale is None:
                self._scale = ratio
            else:
                self._scale = (1.0 - self.alpha) * self._scale + self.alpha * ratio

    @property
    def scale(self) -> Optional[float]:
        """The learned host calibration factor (``None`` until observed).

        This is the multiplier the decomposition planner applies to its
        render-work terms when a service resolves ``backend="auto"`` at
        construction.
        """
        with self._lock:
            return self._scale


class TokenBucket:
    """Thread-safe token bucket: sustained *rate* with a *burst* cap.

    A bucket sheds work that exceeds an allotted *throughput* — the
    per-tenant quota layer of the cluster tier
    (:mod:`repro.cluster.quotas`) keeps one bucket per tenant.

    Tokens refill continuously at *rate* per second up to *burst*; an
    acquire that finds no whole token fails.  The clock is injectable so
    quota tests are deterministic instead of sleep-based.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Optional[Callable[[], float]] = None):
        if rate <= 0:
            raise ServiceError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ServiceError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._tokens = float(burst)  #: guarded-by: _lock
        self._last = self._clock()  #: guarded-by: _lock

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take *n* tokens if available; ``False`` sheds the request."""
        now = self._clock()
        with self._lock:
            elapsed = max(0.0, now - self._last)
            self._last = now
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            if self._tokens < n:
                return False
            self._tokens -= n
            return True

    @property
    def tokens(self) -> float:
        """Tokens currently available (refilled to now; observability)."""
        now = self._clock()
        with self._lock:
            elapsed = max(0.0, now - self._last)
            self._last = now
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            return self._tokens

