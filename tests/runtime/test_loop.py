"""RuntimeLoop: the one event loop everything above it schedules onto."""

import asyncio
import threading

import pytest

from repro.errors import ServiceError
from repro.runtime.loop import RuntimeLoop, get_runtime_loop


@pytest.fixture
def rt():
    with RuntimeLoop(name="rt-test") as runtime:
        yield runtime


class TestSingleton:
    def test_process_singleton_is_stable(self):
        assert get_runtime_loop() is get_runtime_loop()

    def test_singleton_is_alive_and_daemonic(self):
        runtime = get_runtime_loop()
        assert runtime.alive
        assert runtime._thread.daemon


class TestCrossing:
    def test_run_returns_coroutine_result(self, rt):
        async def answer():
            return 42

        assert rt.run(answer()) == 42

    def test_run_propagates_exceptions(self, rt):
        async def boom():
            raise ValueError("kapow")

        with pytest.raises(ValueError, match="kapow"):
            rt.run(boom())

    def test_coroutines_own_timeout_error_is_not_a_call_timeout(self, rt):
        async def store_read():
            raise TimeoutError("store read timed out")

        with pytest.raises(TimeoutError, match="store read"):
            rt.run(store_read())

    def test_call_executes_on_the_loop_thread(self, rt):
        name = rt.call(lambda: threading.current_thread().name)
        assert name == "rt-test"
        assert rt.call(lambda: asyncio.get_running_loop()) is rt._loop

    def test_blocking_run_from_loop_thread_is_refused(self, rt):
        # The deadlock guard: a blocking shim on the loop thread would
        # wait on a result only the loop thread itself can produce.
        def shim_from_the_loop():
            return rt.run(asyncio.sleep(0))

        with pytest.raises(ServiceError, match="deadlock"):
            rt.call(shim_from_the_loop)

    def test_in_loop_thread_is_accurate(self, rt):
        assert not rt.in_loop_thread()
        assert rt.call(rt.in_loop_thread)


class TestLifecycle:
    def test_shutdown_ends_the_loop(self):
        runtime = RuntimeLoop(name="rt-brief")
        assert runtime.alive
        runtime.shutdown()
        assert not runtime.alive

    def test_submit_after_shutdown_raises(self):
        runtime = RuntimeLoop(name="rt-dead")
        runtime.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            runtime.submit(asyncio.sleep(0))

    def test_shutdown_cancels_pending_tasks(self):
        runtime = RuntimeLoop(name="rt-cancel")
        cancelled = threading.Event()

        async def linger():
            try:
                await asyncio.sleep(60.0)
            except asyncio.CancelledError:
                cancelled.set()
                raise

        runtime.submit(linger())
        runtime.call(lambda: None)  # ensure the task is scheduled
        runtime.shutdown()
        assert cancelled.wait(5.0)

    def test_context_manager_shuts_down(self):
        with RuntimeLoop(name="rt-ctx") as runtime:
            assert runtime.alive
        assert not runtime.alive
