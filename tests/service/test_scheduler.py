"""Tests for repro.service.scheduler — single-flight coalescing."""

import threading

import numpy as np
import pytest

from repro.errors import AdmissionError, ServiceError
from repro.service.scheduler import RequestScheduler


class TestSingleFlight:
    def test_concurrent_duplicates_render_once(self):
        """N threads hitting the same key while the render is held at a
        barrier must produce exactly one render and N-1 coalesces."""
        n_threads = 8
        render_calls = [0]
        calls_lock = threading.Lock()
        release = threading.Event()
        all_submitted = threading.Barrier(n_threads + 1)

        def slow_render():
            with calls_lock:
                render_calls[0] += 1
            release.wait(5.0)
            return np.ones((4, 4))

        scheduler = RequestScheduler(n_workers=2)
        results = []
        results_lock = threading.Lock()

        def client():
            ticket, created = scheduler.submit("hot-key", slow_render)
            all_submitted.wait(5.0)
            texture = ticket.wait(5.0)
            with results_lock:
                results.append((created, texture))

        threads = [threading.Thread(target=client) for _ in range(n_threads)]
        for t in threads:
            t.start()
        all_submitted.wait(5.0)  # every client has submitted...
        release.set()            # ...before the render is allowed to finish
        for t in threads:
            t.join()
        scheduler.close()

        assert render_calls[0] == 1
        assert scheduler.coalesced == n_threads - 1
        assert sum(created for created, _ in results) == 1
        for _, texture in results:
            np.testing.assert_array_equal(texture, np.ones((4, 4)))

    def test_distinct_keys_render_independently(self):
        scheduler = RequestScheduler(n_workers=2)
        t1, c1 = scheduler.submit("a", lambda: np.zeros((2, 2)))
        t2, c2 = scheduler.submit("b", lambda: np.ones((2, 2)))
        assert c1 and c2
        assert t1.wait(5.0)[0, 0] == 0.0
        assert t2.wait(5.0)[0, 0] == 1.0
        scheduler.close()

    def test_sequential_same_key_renders_again_after_completion(self):
        calls = [0]

        def render():
            calls[0] += 1
            return np.zeros((2, 2))

        scheduler = RequestScheduler(n_workers=1)
        t1, _ = scheduler.submit("k", render)
        t1.wait(5.0)
        t2, created = scheduler.submit("k", render)
        t2.wait(5.0)
        assert created  # the first flight retired before the second submit
        assert calls[0] == 2
        scheduler.close()


class TestErrorsAndLifecycle:
    def test_render_error_propagates_to_every_waiter(self):
        release = threading.Event()

        def failing():
            release.wait(5.0)
            raise RuntimeError("render exploded")

        scheduler = RequestScheduler(n_workers=1)
        t1, _ = scheduler.submit("k", failing)
        t2, created = scheduler.submit("k", failing)
        assert not created
        release.set()
        for ticket in (t1, t2):
            with pytest.raises(RuntimeError, match="render exploded"):
                ticket.wait(5.0)
        # The scheduler survives and serves the next request.
        t3, _ = scheduler.submit("k", lambda: np.ones((2, 2)))
        assert t3.wait(5.0)[0, 0] == 1.0
        scheduler.close()

    def test_wait_timeout_raises(self):
        scheduler = RequestScheduler(n_workers=1)
        hold = threading.Event()
        ticket, _ = scheduler.submit("k", lambda: hold.wait(10.0) or np.zeros((2, 2)))
        with pytest.raises(ServiceError, match="timed out"):
            ticket.wait(0.05)
        hold.set()
        scheduler.close()

    def test_wait_timeout_detaches_the_waiter(self):
        # Regression: a timed-out waiter used to stay attached to the
        # flight forever, so anything pricing work by live waiters —
        # shed and late-cancellation accounting — over-counted for the
        # rest of the flight's life.
        scheduler = RequestScheduler(n_workers=1)
        hold = threading.Event()
        ticket, _ = scheduler.submit("k", lambda: hold.wait(10.0) and np.zeros((2, 2)))
        joined, created = scheduler.submit("k", lambda: np.zeros((2, 2)))
        assert not created
        assert ticket.waiters == 2
        with pytest.raises(ServiceError, match="timed out"):
            joined.wait(0.05)
        # The detach is a call_soon onto the runtime loop; a round trip
        # queued after it is a barrier.
        scheduler.runtime.call(lambda: None)
        assert ticket.waiters == 1
        hold.set()
        assert ticket.wait(5.0).shape == (2, 2)
        scheduler.close()

    def test_submit_after_close_raises(self):
        scheduler = RequestScheduler(n_workers=1)
        scheduler.close()
        with pytest.raises(ServiceError, match="closed"):
            scheduler.submit("k", lambda: np.zeros((2, 2)))

    def test_close_drains_pending_work(self):
        scheduler = RequestScheduler(n_workers=1)
        tickets = [
            scheduler.submit(f"k{i}", lambda i=i: np.full((2, 2), float(i)))[0]
            for i in range(5)
        ]
        scheduler.close(wait=True)
        for i, ticket in enumerate(tickets):
            assert ticket.wait(1.0)[0, 0] == float(i)


class TestAdmissionHook:
    def test_admit_sees_backlog_and_can_shed(self):
        depths = []

        def admit(depth):
            depths.append(depth)
            if depth >= 2:
                raise AdmissionError("queue full")

        hold = threading.Event()
        started = threading.Event()
        scheduler = RequestScheduler(n_workers=1, admit=admit)
        scheduler.submit(
            "a", lambda: started.set() or hold.wait(5.0) or np.zeros((2, 2))
        )
        assert started.wait(5.0)  # "a" is executing, not queued
        scheduler.submit("b", lambda: np.zeros((2, 2)))  # backlog 0
        scheduler.submit("c", lambda: np.zeros((2, 2)))  # backlog 1 (b queued)
        with pytest.raises(AdmissionError):
            scheduler.submit("d", lambda: np.zeros((2, 2)))  # backlog 2: shed
        # Coalescing onto an existing flight is never shed.
        _, created = scheduler.submit("a", lambda: np.zeros((2, 2)))
        assert not created
        assert depths == [0, 0, 1, 2]
        hold.set()
        scheduler.close()

    def test_admit_excludes_executing_renders(self):
        """Regression: admit used to receive len(inflight) — executing
        plus queued — so budgets priced nearly-finished renders as if
        they queued ahead of the new request and over-shed."""
        depths = []
        hold = threading.Event()
        scheduler = RequestScheduler(n_workers=2, admit=depths.append)

        def slow(started):
            started.set()
            hold.wait(5.0)
            return np.zeros((2, 2))

        for key in ("a", "b"):
            started = threading.Event()
            scheduler.submit(key, lambda started=started: slow(started))
            assert started.wait(5.0)  # this flight is executing
        assert scheduler.queue_depth() == 2  # total in the system...
        assert scheduler.backlog() == 0      # ...but nothing queues ahead
        scheduler.submit("c", lambda: np.zeros((2, 2)))
        # The new flight was admitted against an empty backlog, not the
        # two executing renders.
        assert depths == [0, 0, 0]
        hold.set()
        scheduler.close()

    def test_queue_depth_tracks_inflight(self):
        hold = threading.Event()
        scheduler = RequestScheduler(n_workers=1)
        assert scheduler.queue_depth() == 0
        ticket, _ = scheduler.submit("a", lambda: hold.wait(5.0) or np.zeros((2, 2)))
        assert scheduler.queue_depth() == 1
        hold.set()
        ticket.wait(5.0)
        # The flight retires on the loop; a round trip queued after the
        # wake-up is a barrier, so this read needs no polling.
        scheduler.runtime.call(lambda: None)
        assert scheduler.queue_depth() == 0
        scheduler.close()


class TestBatchSubmit:
    def test_submit_many_coalesces_within_the_batch(self):
        calls = [0]
        calls_lock = threading.Lock()
        release = threading.Event()

        def render():
            with calls_lock:
                calls[0] += 1
            release.wait(5.0)
            return np.zeros((2, 2))

        scheduler = RequestScheduler(n_workers=2)
        tickets = scheduler.submit_many(
            [("a", render), ("b", render), ("a", render), ("b", render)]
        )
        release.set()
        for ticket, _ in tickets:
            ticket.wait(5.0)
        scheduler.close()
        assert calls[0] == 2  # two distinct keys, duplicates coalesced
        created = [c for _, c in tickets]
        assert created == [True, True, False, False]
