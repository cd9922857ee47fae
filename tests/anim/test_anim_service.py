"""End-to-end animation streaming: cache tiers, checkpoints, coalescing."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.anim import AnimationService, one_shot_frame
from repro.core.config import SpotNoiseConfig
from repro.errors import AnimationServiceError, ServiceError
from repro.fields.analytic import random_smooth_field
from repro.runtime.loop import RuntimeLoop, get_runtime_loop

CONFIG = SpotNoiseConfig(n_spots=100, texture_size=32, seed=9)
N_FRAMES = 24


@pytest.fixture
def source():
    cache = {t: random_smooth_field(seed=200 + t, n=16) for t in range(N_FRAMES)}
    return cache.__getitem__


def make_service(source, **kwargs):
    kwargs.setdefault("length", N_FRAMES)
    kwargs.setdefault("checkpoint_every", 4)
    return AnimationService(source, CONFIG, **kwargs)


class TestStreaming:
    def test_stream_serves_all_frames_in_order(self, source):
        with make_service(source) as svc:
            frames = list(svc.stream(0, 8))
        assert [f.frame for f in frames] == list(range(8))
        assert all(f.texture.shape == (32, 32) for f in frames)

    def test_second_pass_is_all_cache_hits(self, source):
        with make_service(source) as svc:
            list(svc.stream(0, 8))
            renders = svc.stats.renders
            again = list(svc.stream(0, 8))
            assert svc.stats.renders == renders
        assert {f.source for f in again} == {"memory"}
        assert {f.texture.dtype for f in again} == {np.dtype(np.float64)}

    def test_streamed_frames_bit_identical_to_one_shot(self, source):
        with make_service(source) as svc:
            frames = {f.frame: f.texture for f in svc.stream(0, 10)}
            for t in (0, 5, 6, 9):
                reference = one_shot_frame(CONFIG, source, t, dt=svc.dt)
                assert np.array_equal(frames[t], reference.display)

    def test_request_is_single_frame_stream(self, source):
        with make_service(source) as svc:
            response = svc.request(5)
        assert response.frame == 5
        assert response.key.frame == 5

    def test_each_distinct_frame_rendered_once_single_client(self, source):
        with make_service(source) as svc:
            trace = [0, 1, 2, 1, 0, 3, 2, 4, 4, 0]
            for t in trace:
                svc.request(t)
            assert svc.stats.renders == len(set(trace))

    def test_range_validation(self, source):
        with make_service(source) as svc:
            with pytest.raises(AnimationServiceError):
                list(svc.stream(3, 3))
            with pytest.raises(AnimationServiceError):
                list(svc.stream(0, N_FRAMES + 1))
            with pytest.raises(ServiceError):
                svc.close()
                svc.request(0)

    def test_source_errors_propagate_and_are_counted(self):
        def flaky(t):
            if t >= 2:
                raise RuntimeError("data source down")
            return random_smooth_field(seed=t, n=16)

        with AnimationService(flaky, CONFIG, checkpoint_every=0) as svc:
            list(svc.stream(0, 2))
            with pytest.raises(RuntimeError):
                list(svc.stream(2, 3))
            assert svc.stats.errors >= 1


class TestCheckpoints:
    def test_seek_resumes_from_checkpoint_not_frame_zero(self, source):
        advected = []

        def counting(t):
            advected.append(t)
            return source(t)

        with make_service(counting, checkpoint_every=4) as svc:
            list(svc.stream(0, 9))  # checkpoints at 4 and 8
            advected.clear()
            svc.request(10)
        # The walk resumed from its threaded state / the boundary-8
        # checkpoint and replayed only the suffix — never frames 0..7.
        assert advected and min(advected) >= 8

    def test_fresh_process_resumes_via_disk(self, source, tmp_path):
        disk = str(tmp_path / "cache")
        with make_service(source, disk_dir=disk) as svc:
            list(svc.stream(0, 9))
        # New service, cold memory: cached frames come from disk ...
        with make_service(source, disk_dir=disk) as svc2:
            assert svc2.request(7).source == "disk"
            # ... and an uncached frame resumes from the disk checkpoint
            # with exactly the missing renders, still bit-identical.
            response = svc2.request(10)
            assert svc2.stats.renders <= 3  # frames 9, 10 (+ race slack)
            reference = one_shot_frame(CONFIG, source, 10, dt=svc2.dt)
            assert np.array_equal(response.texture, reference.display)

    def test_manifest_records_frames_and_checkpoints(self, source, tmp_path):
        disk = str(tmp_path / "cache")
        with make_service(source, disk_dir=disk) as svc:
            list(svc.stream(0, 9))
            manifest = svc.manifest()
            path = svc.write_manifest()
        assert manifest["checkpoints"] == [4, 8]
        assert sorted(manifest["cached_frames"]) == list(range(9))
        assert path is not None

    def test_checkpointing_can_be_disabled(self, source):
        with make_service(source, checkpoint_every=0) as svc:
            list(svc.stream(0, 6))
            assert svc.manifest()["checkpoints"] == []
            assert len(svc.checkpoints) == 0


class TestFailureRecovery:
    def test_render_failure_does_not_poison_later_walks(self, source):
        # A synthesis failure lands *after* the advection mutated the
        # evolution state; pooling that animator would double-advect the
        # failed frame on retry and cache wrong bytes under correct keys.
        with make_service(source) as svc:
            calls = {"n": 0}
            orig = svc.runtime.synthesize

            def flaky(field, particles):
                calls["n"] += 1
                if calls["n"] >= 3:
                    raise RuntimeError("backend died mid-synthesis")
                return orig(field, particles)

            svc.runtime.synthesize = flaky
            with pytest.raises(RuntimeError, match="mid-synthesis"):
                list(svc.stream(0, 5))
            svc.runtime.synthesize = orig
            frames = {r.frame: r.texture for r in svc.stream(0, 5)}
            for t in (2, 4):
                reference = one_shot_frame(CONFIG, source, t, dt=svc.dt)
                assert np.array_equal(frames[t], reference.display), f"frame {t}"

    def test_walk_over_warm_cache_still_checkpoints(self, source, tmp_path):
        import os

        disk = str(tmp_path / "cache")
        with make_service(source, disk_dir=disk, checkpoint_every=0) as svc:
            list(svc.stream(0, 8))  # warm the disk tier, no checkpoints
        # Fresh process, cold memory; one missing entry forces a walk
        # that passes the other (disk-cached) frames.
        with make_service(
            source, disk_dir=disk, checkpoint_every=4, memory_budget_bytes=0
        ) as svc2:
            missing = svc2.sequence.frame_digest(2)
            os.unlink(os.path.join(disk, f"{missing}.npz"))
            frames = list(svc2.stream(0, 8))
            assert [f.frame for f in frames] == list(range(8))
        # close() joined the walk; cache-hit frames inside it are
        # bookkept and checkpointed too — a warm-cache replay leaves
        # resume points behind.
        manifest = svc2.manifest()
        assert sorted(manifest["cached_frames"]) == list(range(2, 8))
        assert manifest["checkpoints"] == [4, 8]


class _Abort(BaseException):
    """Not an ``Exception``: the shape of KeyboardInterrupt/SystemExit."""


class TestLoopNativeWalks:
    def test_streamed_frame_costs_at_most_one_loop_hop(self, source, monkeypatch):
        hops = []
        run, call = RuntimeLoop.run, RuntimeLoop.call

        def counting_run(self, coro):
            hops.append("run")
            return run(self, coro)

        def counting_call(self, fn, *args):
            # call() goes through run(), so a call counts twice: the
            # bound below only gets stricter.
            hops.append("call")
            return call(self, fn, *args)

        monkeypatch.setattr(RuntimeLoop, "run", counting_run)
        monkeypatch.setattr(RuntimeLoop, "call", counting_call)
        with make_service(source) as svc:
            hops.clear()
            frames = list(svc.stream(0, 16))
            streamed = len(hops)
            assert svc.stats.renders == 16  # every frame was cold
        assert [f.frame for f in frames] == list(range(16))
        assert streamed <= 16 + 2, hops

    @pytest.mark.parametrize("fatal", [_Abort, SystemExit])
    def test_base_exception_mid_walk_reaches_the_consumer(self, source, fatal):
        loads = {}

        def aborting(t):
            loads[t] = loads.get(t, 0) + 1
            # The first load of a field feeds the digest chain; the
            # second is the walk's render of frame 3, in its executor job.
            if t == 3 and loads[t] == 2:
                raise fatal("field source aborted")
            return source(t)

        with AnimationService(
            aborting, CONFIG, length=N_FRAMES, checkpoint_every=4
        ) as svc:
            assert [r.frame for r in svc.stream(0, 3)] == [0, 1, 2]
            # The walk for [3, 6) continues the sequence from the pooled
            # animator; its consumer is attached to frame 3 from the hop
            # that starts the walk, so the failure must reach it.
            with pytest.raises(fatal):
                list(svc.stream(3, 6))
            # Delivered to the waiter, never escaped onto the spine.
            assert get_runtime_loop().alive
            svc.scheduler.runtime.call(lambda: None)  # retirement callbacks ran
            assert len(svc.scheduler._walks) == 0
            again = {r.frame: r.texture for r in svc.stream(0, 6)}
        for t in range(6):
            reference = one_shot_frame(CONFIG, source, t, dt=svc.dt)
            assert np.array_equal(again[t], reference.display), f"frame {t}"

    def test_close_mid_walk_drains_it(self, source):
        reached, gate = threading.Event(), threading.Event()

        def gated(t):
            if t == 5 and not gate.is_set():
                reached.set()
                assert gate.wait(10.0)
            return source(t)

        svc = AnimationService(gated, CONFIG, length=N_FRAMES, checkpoint_every=4)
        sched = svc.scheduler
        # The first frame of a range stream starts a walk over the whole
        # range, which runs on after frame 0 is delivered.
        assert next(svc.stream(0, 12)).frame == 0
        assert reached.wait(10.0)  # the walk is parked inside frame 5
        walks = sched.runtime.call(lambda: set(sched._walks))
        assert len(walks) == 1
        drain = sched.drain

        async def draining():
            gate.set()  # release the walk only once the drain has begun
            await drain()

        sched.drain = draining
        svc.close()
        assert all(walk.done() for walk in walks)
        assert len(sched._walks) == 0
        assert svc.stats.renders == 12  # the walk finished its range
        with pytest.raises(ServiceError, match="closed"):
            svc.request(0)

    def test_racing_scrubs_stay_bit_identical_under_switch_pressure(self, source):
        # Eight clients on two cores scrub overlapping ranges through a
        # four-texture memory tier, so joins, curtail-and-union
        # replacements and cache fallbacks race walk tasks and their
        # executor jobs at a shortened interpreter switch interval.
        with make_service(source) as sequential:
            reference = {f.frame: f.texture for f in sequential.stream(0, N_FRAMES)}
        rng = np.random.default_rng(5)
        starts = rng.integers(0, N_FRAMES, size=(8, 3))
        served, errors = [], []

        def client(row):
            try:
                for start in row:
                    stop = min(N_FRAMES, int(start) + 6)
                    served.extend(svc.stream(int(start), stop))
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            svc = make_service(source, n_workers=2, memory_budget_bytes=4 * 32 * 32 * 8)
            threads = [threading.Thread(target=client, args=(row,), daemon=True) for row in starts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
            svc.close()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert len(svc.scheduler._walks) == 0
        assert len(served) == sum(min(N_FRAMES, int(a) + 6) - int(a) for a in starts.flat)
        for response in served:
            assert np.array_equal(response.texture, reference[response.frame]), response.frame


class TestCoalescing:
    def test_concurrent_overlapping_scrubs_share_one_walk(self, source):
        slow = threading.Event()

        def slow_source(t):
            # First load stalls the walk long enough for the second
            # client to arrive and join.
            if t == 1:
                slow.wait(0.2)
            return source(t)

        with AnimationService(
            slow_source, CONFIG, length=N_FRAMES, checkpoint_every=4
        ) as svc:
            results = {}

            def client(name, a, b):
                results[name] = list(svc.stream(a, b))

            t1 = threading.Thread(target=client, args=("a", 0, 12))
            t2 = threading.Thread(target=client, args=("b", 4, 10))
            t1.start()
            t2.start()
            slow.set()
            t1.join()
            t2.join()
            # Every frame of both (overlapping) scrubs served, renders
            # not duplicated per client.
            assert [f.frame for f in results["a"]] == list(range(12))
            assert [f.frame for f in results["b"]] == list(range(4, 10))
            assert svc.stats.renders <= 14  # 12 distinct + race slack
        for f in results["b"]:
            matching = results["a"][f.frame]
            assert np.array_equal(f.texture, matching.texture)


class TestLifecycle:
    def test_close_closes_each_resource_once_and_refuses_work(
        self, source, monkeypatch
    ):
        from repro.parallel.runtime import DivideAndConquerRuntime

        closes = []
        real_close = DivideAndConquerRuntime.close

        def counting_close(runtime):
            closes.append(runtime)
            real_close(runtime)

        monkeypatch.setattr(DivideAndConquerRuntime, "close", counting_close)
        svc = make_service(source)
        frames = svc.stream(0, 2)
        assert next(frames).frame == 0
        svc.close()
        svc.close()
        assert closes.count(svc.runtime) == 1
        with pytest.raises(ServiceError, match="closed"):
            svc.request(0)
        with pytest.raises(ServiceError, match="closed"):
            svc.stream(0, 2)

    def test_closed_animation_service_needs_no_cycle_collector(self, source):
        # Nothing may tie a closed service into a reference cycle (say,
        # through a walk factory bound to it): callers that open and
        # close a service per session would hold every one's caches
        # until the next collector pass.
        gc.disable()
        try:
            svc = make_service(source)
            svc.request(0)
            svc.close()
            ref = weakref.ref(svc)
            del svc
            assert ref() is None
        finally:
            gc.enable()

    def test_unseeded_config_rejected(self, source):
        with pytest.raises(AnimationServiceError):
            AnimationService(source, CONFIG.with_overrides(seed=None))
