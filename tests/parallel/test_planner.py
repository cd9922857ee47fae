"""Decomposition planner: pricing properties, determinism, auto wiring.

The planner's value is in its *shape*, not its absolute numbers: tiny
workloads must stay serial (overheads dominate), big workloads must fan
out (eq 3.2's balance tips), host calibration must move the balance, and
for a fixed calibration the plan must be a pure function.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.smog.steering import SteeredSmogApplication
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.errors import BackendError, MachineError
from repro.fields.analytic import vortex_field
from repro.machine.costs import CostModel
from repro.machine.workload import SpotWorkload, workload_from_config
from repro.parallel.backends import BACKEND_NAMES, get_backend
from repro.parallel.planner import (
    DecompositionPlanner,
    DecompositionPlan,
    resolve_plan,
)
from repro.parallel.runtime import DivideAndConquerRuntime

TINY = SpotWorkload.standard_spots(50, texture_size=64)
HUGE = SpotWorkload.turbulence()


class TestPlanProperties:
    def test_tiny_workload_plans_serial(self):
        plan = DecompositionPlanner(host_workers=8).plan(TINY)
        assert plan.triple == ("serial", 1, "round_robin")

    def test_huge_workload_plans_parallel(self):
        plan = DecompositionPlanner(host_workers=8).plan(HUGE)
        assert plan.backend != "serial"
        assert plan.n_groups > 1

    def test_single_core_host_plans_serial(self):
        # min(n_groups, 1) slot: every parallel candidate is pure
        # overhead, whatever the workload size.
        plan = DecompositionPlanner(host_workers=1).plan(HUGE)
        assert plan.backend == "serial"

    def test_every_plannable_backend_is_constructible(self):
        # The planner may only choose what get_backend can build, and
        # every named backend is a candidate.
        plan = DecompositionPlanner(host_workers=8).plan(HUGE)
        assert {c.backend for c in plan.candidates} == set(BACKEND_NAMES)
        for name in BACKEND_NAMES:
            with get_backend(name) as be:
                assert be.name == name

    def test_calibration_scale_moves_the_balance(self):
        # A slow host (large scale) amortises parallel overhead; a fast
        # host tips the same workload back to serial.
        p = DecompositionPlanner(host_workers=8)
        mid = SpotWorkload.standard_spots(4000)
        slow = p.plan(mid, scale=50.0)
        fast = p.plan(mid, scale=1e-4)
        assert slow.n_groups > 1
        assert fast.triple == ("serial", 1, "round_robin")

    def test_plan_deterministic_for_fixed_calibration(self):
        p = DecompositionPlanner(host_workers=8)
        a = p.plan(HUGE, scale=2.5)
        b = p.plan(HUGE, scale=2.5)
        assert a == b
        assert isinstance(a, DecompositionPlan)

    def test_candidates_sorted_and_complete(self):
        plan = DecompositionPlanner(host_workers=4, max_groups=4).plan(HUGE)
        prices = [c.predicted_s for c in plan.candidates]
        assert prices == sorted(prices)
        assert plan.candidates[0].predicted_s == plan.predicted_s
        backends = {c.backend for c in plan.candidates}
        assert backends == set(BACKEND_NAMES)

    def test_spatial_ok_gates_spatial_candidates(self):
        plan = DecompositionPlanner(host_workers=8).plan(
            HUGE, spatial_ok=lambda n: False
        )
        assert all(c.partition != "spatial" for c in plan.candidates)

    def test_blend_term_penalises_more_groups(self):
        # Eq 3.2: the sequential blend grows with n_groups; for a fixed
        # backend the price must eventually rise again past the knee.
        p = DecompositionPlanner(host_workers=4, max_groups=64)
        prices = [p.price(HUGE, "sharedmem", n) for n in (4, 8, 16, 32, 64)]
        assert prices[-1] > prices[0]

    def test_apply_produces_valid_config(self):
        plan = DecompositionPlanner(host_workers=8).plan(HUGE)
        cfg = plan.apply(SpotNoiseConfig(backend="auto", seed=0))
        assert cfg.backend == plan.backend
        assert cfg.n_groups == plan.n_groups
        assert cfg.partition == plan.partition

    def test_summary_marks_winner(self):
        plan = DecompositionPlanner(host_workers=8).plan(TINY)
        text = plan.summary()
        assert "->" in text and "serial" in text


class TestHostRanking:
    """The plans a 2-slot host gets under the uncalibrated Onyx2 model.

    Render work is priced from the Onyx2 constants; partition, blend,
    transport and dispatch are host terms.  No wall clock is read.
    """

    PLANNER = DecompositionPlanner(CostModel.onyx2(), host_workers=2)

    def _plan(self, cfg, field_):
        plan, resolved = resolve_plan(cfg, field_, self.PLANNER)
        assert resolved == plan.apply(cfg)
        return plan

    def test_steering_loop_plans_sharedmem_on_two_slots(self):
        # The section 5.1 steering loop: smog wind of the application's
        # default world (seed 1997), 2500 spots, 128^2 texture.
        wind, _ = SteeredSmogApplication(seed=1997).advance()
        cfg = SpotNoiseConfig(n_spots=2500, texture_size=128, seed=1, backend="auto")
        assert self._plan(cfg, wind).triple == ("sharedmem", 2, "round_robin")

    @pytest.mark.parametrize("n_spots", [150, 500])
    def test_small_vortex_configs_plan_serial(self, n_spots):
        cfg = SpotNoiseConfig(n_spots=n_spots, texture_size=64, seed=3, backend="auto")
        assert self._plan(cfg, vortex_field(n=33)).triple == ("serial", 1, "round_robin")

    def test_serial_pays_render_work_only(self):
        # One group partitions and blends nothing on the host.
        c = CostModel.onyx2()
        w = SpotWorkload.standard_spots(2500, texture_size=128)
        work = (
            c.shape_time(w.n_spots, w.total_vertices)
            + c.feed_time(w.total_vertices)
            + c.pipe_time(w.total_vertices, w.total_pixels)
        )
        assert self.PLANNER.price(w, "serial", 1, scale=3.0) == pytest.approx(3.0 * work)


class TestPlanBenchCalibration:
    """``plan-bench`` calibrates the Onyx2 model from two serial frames:
    its scale is an EWMA (alpha 0.3) of each frame's seconds over the
    raw Onyx2 estimate of the frame."""

    def test_scale_is_an_ewma_of_two_frames(self, monkeypatch):
        from repro import benches

        ticks = iter([0.0, 0.010, 1.0, 1.030])  # frames of 10 and 30 ms
        monkeypatch.setattr(benches, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        cfg = SpotNoiseConfig(n_spots=200, texture_size=32, seed=2)
        field_ = vortex_field(n=17)
        scale, plan = benches.calibrated_plan(cfg, field_, 2)

        c = CostModel.onyx2()
        w = workload_from_config(cfg, field_)
        raw = (
            c.shape_time(w.n_spots, w.total_vertices)
            + c.feed_time(w.total_vertices)
            + c.pipe_time(w.total_vertices, w.total_pixels)
            + c.blend_time(w.texture_pixels)
        )
        expected = 0.7 * (0.010 / raw) + 0.3 * (0.030 / raw)
        assert scale == pytest.approx(expected, rel=1e-12)
        expected_plan, _ = resolve_plan(
            cfg.with_overrides(backend="auto"), field_,
            DecompositionPlanner(host_workers=2), scale=scale,
        )
        assert plan == expected_plan and plan.scale == scale


class TestValidation:
    def test_unplannable_backend_rejected(self):
        with pytest.raises(BackendError):
            DecompositionPlanner().price(TINY, "gpu", 2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(MachineError):
            DecompositionPlanner(max_groups=0)
        with pytest.raises(MachineError):
            DecompositionPlanner().price(TINY, "serial", 0)
        with pytest.raises(MachineError):
            DecompositionPlanner().price(TINY, "serial", 1, scale=0.0)


class TestAutoRuntime:
    FIELD = vortex_field(n=33)

    def test_auto_resolves_and_matches_resolved_config_exactly(self):
        cfg = SpotNoiseConfig(
            n_spots=150, texture_size=64, seed=3, backend="auto"
        )
        with SpotNoisePipeline(cfg, self.FIELD) as pipe:
            plan = pipe.plan
            out, rep = pipe.synthesize()
        assert plan is not None
        resolved = plan.apply(cfg)
        assert resolved.backend in BACKEND_NAMES
        assert rep.backend == resolved.backend
        # The auto texture must equal a direct render under the resolved
        # config, bit for bit — auto is a planner, not a new renderer.
        with SpotNoisePipeline(resolved, self.FIELD) as pipe:
            assert pipe.plan is None
            ref, _ = pipe.synthesize()
        np.testing.assert_array_equal(out, ref)

    def test_auto_plan_is_stable_across_frames(self):
        cfg = SpotNoiseConfig(n_spots=100, texture_size=64, seed=1, backend="auto")
        with SpotNoisePipeline(cfg, self.FIELD) as pipe:
            first = pipe.plan  # resolved at construction, before any frame
            assert pipe.runtime.config == first.apply(cfg)
            pipe.step()
            pipe.step(self.FIELD)
            assert pipe.plan is first  # resolved once per pipeline lifetime
            assert pipe.runtime.config == first.apply(cfg)

    def test_runtime_takes_only_concrete_backends(self):
        cfg = SpotNoiseConfig(n_spots=50, texture_size=32, seed=0, backend="auto")
        with pytest.raises(BackendError, match="resolved by the planner"):
            DivideAndConquerRuntime(cfg)

    def test_concrete_backend_resolves_to_itself(self):
        cfg = SpotNoiseConfig(n_spots=50, texture_size=32, seed=0, backend="sharedmem")
        assert resolve_plan(cfg, None) == (None, cfg)

    def test_planner_workload_round_trip(self):
        cfg = SpotNoiseConfig(n_spots=500, texture_size=128, seed=0)
        w = workload_from_config(cfg, self.FIELD)
        assert w.grid_shape == tuple(self.FIELD.grid.shape)
        assert w.field_bytes == self.FIELD.nbytes()
