"""Single-flight scheduling of TextureService misses.

A miss joins its key's in-flight render or begins a new one on the
runtime loop (``TextureService._start``), a drive task renders it on the
service's render pool and settles the flight, and the caller awaits it
in one loop hop.  These tests drive that path through the public service.
Renders are held at a gate; every wait is ordered on an event the code
under test signals (a render starting, a request joining), never on a
clock.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.config import SpotNoiseConfig
from repro.errors import ServiceError
from repro.fields.analytic import random_smooth_field
from repro.runtime.loop import RuntimeLoop, get_runtime_loop
from repro.service import FrameRenderer, TextureService

CONFIG = SpotNoiseConfig(n_spots=80, texture_size=24, seed=3)


@pytest.fixture
def fields():
    return {f: random_smooth_field(seed=70 + f, n=17) for f in range(6)}


def make_service(fields, **kwargs):
    return TextureService(lambda f: fields[f], CONFIG, **kwargs)


def fresh(field):
    renderer = FrameRenderer(CONFIG)
    try:
        return renderer.render(field)
    finally:
        renderer.close()


class Gate:
    """Holds every render of *svc* until :meth:`release`; counts them
    and signals each one's start.  *fail* is raised instead of
    rendering once released."""

    def __init__(self, svc, fail=None):
        self.svc = svc
        self.hold = threading.Event()
        self.started = threading.Semaphore(0)
        self.calls = 0
        self._lock = threading.Lock()
        render = svc.renderer.render

        def gated(field):
            with self._lock:
                self.calls += 1
            self.started.release()
            self.hold.wait(10.0)
            if fail is not None:
                raise fail
            return render(field)

        svc.renderer.render = gated

    def wait_started(self, n=1):
        for _ in range(n):
            assert self.started.acquire(timeout=10.0)

    def release(self):
        self.hold.set()

    def restore(self):
        del self.svc.renderer.render


class Starts:
    """Signals every flight *svc* begins or joins, from the loop
    callback that does it (``TextureService._start``), so a wait on it
    is ordered: any later loop hop sees the flight."""

    def __init__(self, svc):
        self.begun = threading.Semaphore(0)
        self.joined = threading.Semaphore(0)
        start = svc._start

        def signalling(key, render):
            flight, created = start(key, render)
            (self.begun if created else self.joined).release()
            return flight, created

        svc._start = signalling

    @staticmethod
    def wait(signal, n=1):
        for _ in range(n):
            assert signal.acquire(timeout=10.0)


def joiners(svc, pool, frame, n=1):
    """Submit *n* blocking requests for *frame*; return their futures
    once every one has joined the in-flight render."""
    starts = Starts(svc)
    try:
        futures = [pool.submit(svc.request, frame) for _ in range(n)]
        Starts.wait(starts.joined, n)
    finally:
        del svc._start
    return futures


class TestSingleFlight:
    def test_concurrent_duplicates_render_once(self, fields):
        """N requests for one frame while its render is held produce
        exactly one render and N-1 coalesced responses."""
        n = 8
        with make_service(fields, n_workers=2) as svc, ThreadPoolExecutor(n) as pool:
            gate = Gate(svc)
            futures = [pool.submit(svc.request, 0)]
            gate.wait_started()
            futures += joiners(svc, pool, 0, n - 1)
            gate.release()
            responses = [f.result(timeout=10.0) for f in futures]
            assert gate.calls == 1
            assert svc.stats.renders == 1
        assert sorted(r.source for r in responses) == ["coalesced"] * (n - 1) + ["render"]
        assert svc.stats.snapshot()["by_source"]["coalesced"] == n - 1
        expected = fresh(fields[0])
        for r in responses:
            np.testing.assert_array_equal(r.texture, expected)

    def test_distinct_keys_render_independently(self, fields):
        with make_service(fields, n_workers=2) as svc, ThreadPoolExecutor(2) as pool:
            gate = Gate(svc)
            futures = [pool.submit(svc.request, f) for f in (0, 1)]
            gate.wait_started(2)  # both execute at once: no cross-key join
            assert svc.queue_depth() == 2
            gate.release()
            a, b = (f.result(timeout=10.0) for f in futures)
            assert svc.stats.renders == 2
        assert (a.source, b.source) == ("render", "render")
        np.testing.assert_array_equal(a.texture, fresh(fields[0]))
        np.testing.assert_array_equal(b.texture, fresh(fields[1]))
        assert not np.array_equal(a.texture, b.texture)

    def test_sequential_same_key_renders_again_after_completion(self, fields):
        # A zero memory budget rejects every put, so the second request
        # can only be served by a new flight once the first settled.
        with make_service(fields, n_workers=1, memory_budget_bytes=0) as svc:
            first = svc.request(0)
            second = svc.request(0)
            assert svc.stats.renders == 2
        assert (first.source, second.source) == ("render", "render")
        np.testing.assert_array_equal(first.texture, second.texture)


    def test_queue_depth_tracks_inflight(self, fields):
        with make_service(fields, n_workers=1) as svc, ThreadPoolExecutor(2) as pool:
            gate = Gate(svc)
            assert svc.queue_depth() == 0
            creator = pool.submit(svc.request, 0)
            gate.wait_started()
            assert svc.queue_depth() == 1
            assert svc.stats.snapshot()["queue_depth"] == 1
            (joined,) = joiners(svc, pool, 0)
            gate.release()
            assert joined.result(timeout=10.0).source == "coalesced"
            assert creator.result(timeout=10.0).source == "render"
            # The flight retires before its waiters wake.
            assert svc.queue_depth() == 0


class TestErrorsAndLifecycle:
    def test_render_error_propagates_to_every_waiter(self, fields):
        with make_service(fields, n_workers=1) as svc, ThreadPoolExecutor(2) as pool:
            gate = Gate(svc, fail=RuntimeError("render exploded"))
            futures = [pool.submit(svc.request, 0)]
            gate.wait_started()
            futures += joiners(svc, pool, 0)
            gate.release()
            for future in futures:
                with pytest.raises(RuntimeError, match="render exploded"):
                    future.result(timeout=10.0)
            assert svc.stats.errors == 2
            # The service survives and the next request renders fresh.
            gate.restore()
            assert svc.request(0).source == "render"
            assert svc.stats.renders == 1

    def test_submit_after_close_raises(self, fields):
        svc = make_service(fields, n_workers=1)
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.request(0)
        # The loop refuses a new flight too: a request racing close.
        with pytest.raises(ServiceError, match="closed"):
            svc._runtime.call(svc._start, "k", lambda: None)

    def test_close_drains_pending_work(self, fields):
        svc = make_service(fields, n_workers=1)
        gate = Gate(svc)
        starts = Starts(svc)
        with ThreadPoolExecutor(5) as pool:
            futures = [pool.submit(svc.request, f) for f in range(5)]
            Starts.wait(starts.begun, 5)  # five flights, one executing
            gate.wait_started()
            digests = [svc.render_digest(f) for f in range(5)]
            gate.release()
            svc.close()
            # Every queued render ran and its flight settled before
            # close returned.
            assert svc.queue_depth() == 0
            assert svc.stats.renders == 5
            for future in futures:
                assert future.result(timeout=10.0).source == "render"
        for f, digest in enumerate(digests):
            np.testing.assert_array_equal(svc.cache.get(digest)[0], fresh(fields[f]))


class TestLoopHops:
    def test_point_miss_costs_one_loop_hop(self, fields, monkeypatch):
        hops = []
        run, call = RuntimeLoop.run, RuntimeLoop.call

        def counting_run(self, coro):
            hops.append((threading.get_ident(), "run"))
            return run(self, coro)

        def counting_call(self, fn, *args):
            # call() goes through run(), so a call counts twice: the
            # check below only gets stricter.
            hops.append((threading.get_ident(), "call"))
            return call(self, fn, *args)

        monkeypatch.setattr(RuntimeLoop, "run", counting_run)
        monkeypatch.setattr(RuntimeLoop, "call", counting_call)
        with make_service(fields, n_workers=1) as svc, ThreadPoolExecutor(2) as pool:
            gate = Gate(svc)
            hops.clear()
            creator = pool.submit(svc.request, 0)
            gate.wait_started()
            (joiner,) = joiners(svc, pool, 0)
            gate.release()
            sources = [creator.result(timeout=10.0).source,
                       joiner.result(timeout=10.0).source]
            assert svc.request(0).source == "memory"  # a hit costs none
            counted = list(hops)  # before close() makes its own hop
        assert sources == ["render", "coalesced"]
        by_thread = {}
        for ident, kind in counted:
            by_thread.setdefault(ident, []).append(kind)
        assert sorted(by_thread.values()) == [["run"], ["run"]], counted


class TestBaseExceptions:
    @pytest.mark.parametrize("fatal", [KeyboardInterrupt, SystemExit])
    def test_fatal_render_error_reaches_the_caller(self, fields, fatal):
        with make_service(fields, n_workers=1) as svc:
            gate = Gate(svc, fail=fatal("render aborted"))
            gate.release()
            outcome = {}

            def client():
                try:
                    svc.request(0)
                except BaseException as exc:  # noqa: BLE001 - inspected below
                    outcome["error"] = exc

            # A thread with a bounded join: if the fatal error escaped
            # onto the loop, the loop would stop and the request hang.
            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            thread.join(10.0)
            assert not thread.is_alive(), "request hung: the runtime loop died"
            assert type(outcome["error"]) is fatal
            assert get_runtime_loop().alive
            gate.restore()
            assert svc.request(0).source == "render"
