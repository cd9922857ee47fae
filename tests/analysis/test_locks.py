"""Lock-discipline checker: guarded-by annotations."""


def _guarded(report):
    return [f for f in report.findings if f.rule == "guarded-by"]


class TestGuardedBy:
    def test_unlocked_accesses_are_flagged(self, analyse):
        report = analyse("service/locksbad.py")
        findings = _guarded(report)
        assert len(findings) == 4
        assert {f.symbol for f in findings} == {
            "BadScheduler.submit",      # len(self._inflight) outside the lock
            "BadScheduler.snapshot",    # plain unlocked read
            "BadScheduler.deferred",    # closure created under the lock
            "ChildScheduler.peek",      # guard inherited from the base class
        }
        for f in findings:
            assert "_inflight" in f.message
            assert "guarded-by _lock" in f.message

    def test_closure_created_under_lock_resets_held_set(self, analyse):
        findings = _guarded(analyse("service/locksbad.py"))
        assert any(f.symbol == "BadScheduler.deferred" for f in findings)

    def test_same_module_subclass_inherits_guards(self, analyse):
        findings = _guarded(analyse("service/locksbad.py"))
        assert any(f.symbol == "ChildScheduler.peek" for f in findings)

    def test_locked_suffix_methods_are_exempt(self, analyse):
        findings = _guarded(analyse("service/locksbad.py"))
        assert not any("drain_locked" in f.symbol for f in findings)

    def test_disciplined_class_passes(self, analyse):
        report = analyse("service/locksgood.py")
        assert report.findings == []
        assert report.ok()

