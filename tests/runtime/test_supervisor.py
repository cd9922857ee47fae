"""PlanSupervisor: cadence, counters, and failure isolation."""

import threading
import time

import pytest

from repro.errors import ServiceError
from repro.runtime.loop import RuntimeLoop
from repro.runtime.supervisor import PlanSupervisor


@pytest.fixture
def rt():
    with RuntimeLoop(name="rt-supervisor-test") as runtime:
        yield runtime


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestConstruction:
    def test_interval_must_be_positive(self):
        with pytest.raises(ServiceError, match="interval_s"):
            PlanSupervisor(interval_s=0.0)


class TestCadence:
    def test_watched_check_fires_repeatedly(self, rt):
        calls = []
        with PlanSupervisor(interval_s=0.02, runtime=rt) as sup:
            sup.watch("svc", lambda: calls.append(1))
            assert wait_until(lambda: len(calls) >= 3)
        assert sup.checks >= 3

    def test_truthy_check_counts_as_replan(self, rt):
        with PlanSupervisor(interval_s=0.02, runtime=rt) as sup:
            sup.watch("drifty", lambda: True)
            assert wait_until(lambda: sup.replans >= 2)
            assert sup.replans <= sup.checks

    def test_falsy_check_does_not_count_as_replan(self, rt):
        with PlanSupervisor(interval_s=0.02, runtime=rt) as sup:
            sup.watch("steady", lambda: False)
            assert wait_until(lambda: sup.checks >= 3)
            assert sup.replans == 0

    def test_check_runs_off_the_loop_thread(self, rt):
        # Re-plan checks take service locks and build runtimes; they
        # must never run on (and stall) the event loop itself.
        threads = []
        with PlanSupervisor(interval_s=0.02, runtime=rt) as sup:
            sup.watch("probe", lambda: threads.append(threading.current_thread().name))
            assert wait_until(lambda: len(threads) >= 1)
        assert all(name != "rt-supervisor-test" for name in threads)


class TestFailureIsolation:
    def test_raising_check_counts_error_and_supervision_continues(self, rt):
        healthy = []

        def broken():
            raise RuntimeError("check exploded")

        with PlanSupervisor(interval_s=0.02, runtime=rt) as sup:
            sup.watch("broken", broken)
            sup.watch("healthy", lambda: healthy.append(1))
            assert wait_until(lambda: sup.errors >= 2 and len(healthy) >= 2)
        assert sup.errors >= 2
        assert len(healthy) >= 2


class TestRegistration:
    def test_rewatching_same_name_replaces_the_check(self, rt):
        old, new = [], []
        with PlanSupervisor(interval_s=0.02, runtime=rt) as sup:
            sup.watch("svc", lambda: old.append(1))
            assert wait_until(lambda: len(old) >= 1)
            sup.watch("svc", lambda: new.append(1))
            baseline = len(old)
            assert wait_until(lambda: len(new) >= 2)
            assert len(old) <= baseline + 1  # at most one in-flight straggler


class TestLifecycle:
    def test_stop_halts_the_cadence(self, rt):
        calls = []
        sup = PlanSupervisor(interval_s=0.02, runtime=rt)
        sup.watch("svc", lambda: calls.append(1))
        assert wait_until(lambda: len(calls) >= 1)
        sup.stop()
        settled = len(calls)
        time.sleep(0.1)
        assert len(calls) <= settled + 1  # at most one in-flight straggler

    def test_start_after_stop_resumes_with_registrations_intact(self, rt):
        calls = []
        sup = PlanSupervisor(interval_s=0.02, runtime=rt)
        sup.watch("svc", lambda: calls.append(1))
        sup.stop()
        mark = len(calls)
        sup.start()
        assert wait_until(lambda: len(calls) >= mark + 2)
        sup.close()
