"""PlanBinding: snapshot swaps and refcounted retirement, without a service.

The resource here is a stub that counts ``close()`` calls, so the tests
see exactly when the binding retires one.  The drift recipe is the one
the service tests use: bent spots plan serial at a small calibration
scale and parallel at a large one.
"""

import sys
import threading

import pytest

from repro.core.config import BentConfig, SpotNoiseConfig
from repro.errors import ServiceError
from repro.fields.analytic import random_smooth_field
from repro.parallel.binding import PlanBinding
from repro.parallel.planner import DecompositionPlanner

BENT_AUTO = SpotNoiseConfig(
    n_spots=400,
    texture_size=64,
    seed=0,
    backend="auto",
    spot_mode="bent",
    bent=BentConfig(n_along=16, n_across=5, length_cells=2.0, width_cells=0.8),
)

FAST, SLOW = 1e-3, 1e3


class Resource:
    def __init__(self, config):
        self.config = config
        self.closes = 0

    def close(self):
        self.closes += 1


class Calibration:
    """Stands in for the predictor: only ``scale`` is read."""

    def __init__(self, scale):
        self.scale = scale


def make_binding(scale=FAST):
    created = []

    def factory(config):
        created.append(Resource(config))
        return created[-1]

    calibration = Calibration(scale)
    binding = PlanBinding(
        BENT_AUTO,
        factory,
        field0=random_smooth_field(seed=500, n=32),
        planner=DecompositionPlanner(host_workers=8),
        predictor=calibration,
    )
    return binding, calibration, created


def test_drift_swaps_the_whole_snapshot_and_retires_the_old_resource():
    binding, calibration, created = make_binding()
    first = binding.current
    assert first.config.backend == "serial"
    assert first.fingerprint == first.config.fingerprint()
    held = binding.acquire()
    calibration.scale = SLOW
    assert binding.replan_if_drifted() is True
    now = binding.current
    assert now.config.n_groups > 1
    assert now.fingerprint == now.config.fingerprint() != first.fingerprint
    assert binding.replans == 1
    # The holder keeps the old resource open until it lets go.
    assert first.resource.closes == 0
    binding.release(held)
    assert first.resource.closes == 1
    assert len(created) == 2 and now.resource.closes == 0
    binding.close()
    assert now.resource.closes == 1


def test_no_replan_inside_the_drift_band():
    binding, calibration, created = make_binding()
    calibration.scale = FAST * 1.9
    assert binding.replan_if_drifted() is False
    assert binding.replans == 0 and len(created) == 1
    binding.close()


def test_concrete_backend_never_plans():
    config = BENT_AUTO.with_overrides(backend="serial")
    binding = PlanBinding(config, Resource)
    resource = binding.current.resource
    assert binding.current.plan is None
    assert binding.current.config is config
    assert binding.replan_if_drifted() is False
    binding.close()
    assert resource.closes == 1


def test_close_refuses_new_holders_and_closes_each_resource_once():
    binding, _, created = make_binding()
    held = binding.acquire()
    binding.close()
    assert created[0].closes == 1
    with pytest.raises(ServiceError):
        binding.acquire()
    binding.release(held)  # a late release must not close it again
    binding.close()
    assert created[0].closes == 1
    assert binding.replan_if_drifted() is False


def test_racing_holders_and_replans_close_each_resource_exactly_once():
    binding, calibration, created = make_binding()
    errors = []
    stop = threading.Event()

    def holder():
        while not stop.is_set():
            snap = binding.acquire()
            walk = binding.acquire(snap)  # hand a second reference on
            binding.release(snap)
            if walk.resource.closes:
                errors.append("a held resource was closed")
            binding.release(walk)

    flips = 40
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=holder) for _ in range(6)]
    try:
        for t in threads:
            t.start()
        for flip in range(flips):
            calibration.scale = SLOW if flip % 2 == 0 else FAST
            assert binding.replan_if_drifted() is True
    finally:
        stop.set()
        for t in threads:
            t.join(30.0)
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    current = binding.current.resource
    assert len(created) == flips + 1
    assert [r.closes for r in created if r is not current] == [1] * flips
    assert current.closes == 0
    binding.close()
    assert current.closes == 1
