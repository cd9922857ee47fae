"""Async-discipline checker: no blocking primitives on the event loop."""

import os
import shutil

from tools.analysis.baseline import Baseline
from tools.analysis.runner import run_analysis

FIXTURE_SRC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "src", "repro"
)


def _blocking(report):
    return [f for f in report.findings if f.rule == "async-blocking"]


class TestBlockingShapes:
    def test_every_blocking_shape_is_found(self, analyse):
        findings = _blocking(analyse("runtime/loopbad.py"))
        assert {f.symbol for f in findings} == {
            "BadPump.throttle",  # time.sleep on the loop
            "BadPump.dial",      # socket.create_connection in async code
            "BadPump.pump",      # Event.wait and sock.recv, never awaited
        }
        assert len(findings) == 4

    def test_messages_name_the_remedy(self, analyse):
        by_symbol = {}
        for f in _blocking(analyse("runtime/loopbad.py")):
            by_symbol.setdefault(f.symbol, []).append(f)
        assert "await asyncio.sleep" in by_symbol["BadPump.throttle"][0].message
        assert "asyncio streams" in by_symbol["BadPump.dial"][0].message
        for f in by_symbol["BadPump.pump"]:
            assert "blocks the event loop" in f.message

    def test_off_loop_sync_closure_is_exempt(self, analyse):
        findings = _blocking(analyse("runtime/loopbad.py"))
        assert not any(f.symbol.endswith("offload") for f in findings)
        assert not any(f.symbol.endswith("thunk") for f in findings)


class TestDisciplinedCode:
    def test_awaited_twins_and_offloads_pass(self, analyse):
        report = analyse("runtime/loopgood.py")
        assert report.findings == []
        assert report.ok()

    def test_call_fed_to_an_await_combinator_counts_as_awaited(self, analyse):
        # loopgood awaits asyncio.wait_for(flight.wait(), 1.0): the inner
        # .wait() call sits under the await and must not be flagged.
        assert _blocking(analyse("runtime/loopgood.py")) == []

    def test_sync_methods_outside_async_defs_are_ignored(self, analyse):
        findings = _blocking(analyse("runtime/loopgood.py"))
        assert not any("blocking_shim" in f.symbol for f in findings)


class TestScoping:
    def test_anim_walks_are_in_scope(self, analyse):
        # Render walks run as loop tasks, so repro.anim is on the spine.
        findings = _blocking(analyse("anim/walkbad.py"))
        assert {f.symbol for f in findings} == {"BadWalk.walk"}
        assert len(findings) == 2

    def test_service_misses_are_in_scope(self, analyse):
        # Point-serving misses await their flight on the loop, so
        # repro.service is on the spine.
        findings = _blocking(analyse("service/missbad.py"))
        assert {f.symbol for f in findings} == {"BadMiss.miss"}
        assert len(findings) == 1

    def test_modules_off_the_spine_are_not_scanned(self, tmp_path):
        # The same blocking shapes in a module off the spine (the walk
        # fixture, copied under repro.parallel) are out of scope:
        # blocking is legal off the loop.
        dest = tmp_path / "src" / "repro" / "parallel" / "walkbad.py"
        dest.parent.mkdir(parents=True)
        shutil.copy(os.path.join(FIXTURE_SRC, "anim", "walkbad.py"), dest)
        report = run_analysis(baseline=Baseline(), root=str(tmp_path))
        assert report.files_scanned == 1
        assert not _blocking(report)


def test_runtime_and_cluster_tiers_are_clean():
    """The shipped spine obeys its own discipline (S4 acceptance bar)."""
    report = run_analysis(rules=["async-discipline"], baseline=Baseline())
    assert report.parse_errors == []
    assert _blocking(report) == []
    assert report.findings == []
