"""Framework behaviour: suppressions, baseline, rule filtering, output."""

import dataclasses
import json

import pytest

from tools.analysis.baseline import Baseline
from tools.analysis.report import render
from tools.analysis.runner import run_analysis

#: Active findings the full fixture tree produces (asserted exactly so a
#: checker that silently stops firing shows up here, not in production).
EXPECTED_FINDINGS = 26
EXPECTED_SUPPRESSED = 2


class TestSuppressions:
    def test_inline_disable_moves_finding_to_suppressed(self, analyse):
        report = analyse("spots/suppressed.py")
        assert report.findings == []
        assert len(report.suppressed) == EXPECTED_SUPPRESSED
        assert report.ok()

    def test_disable_by_rule_name_and_disable_all(self, analyse):
        report = analyse("spots/suppressed.py")
        by_line = {f.line: f for f in report.suppressed}
        lines = sorted(by_line)
        assert "time.perf_counter()" in by_line[lines[0]].message
        assert "numpy.random.rand()" in by_line[lines[1]].message

    def test_suppressed_findings_stay_visible_in_output(self, analyse):
        report = analyse("spots/suppressed.py")
        text = render(report, "human")
        assert "(suppressed inline)" in text


class TestBaseline:
    def test_write_then_load_grandfathers_everything(self, analyse, tmp_path):
        report = analyse()
        assert len(report.findings) == EXPECTED_FINDINGS
        path = str(tmp_path / "baseline.json")
        assert Baseline.write(path, report.findings) == EXPECTED_FINDINGS
        rerun = analyse(baseline=Baseline.load(path))
        assert rerun.findings == []
        assert len(rerun.baselined) == EXPECTED_FINDINGS
        assert rerun.ok()

    def test_matching_ignores_line_numbers(self, analyse, tmp_path):
        report = analyse()
        path = str(tmp_path / "baseline.json")
        Baseline.write(path, report.findings)
        baseline = Baseline.load(path)
        shifted = dataclasses.replace(report.findings[0], line=report.findings[0].line + 40)
        assert baseline.matches(shifted)

    def test_missing_file_is_an_empty_baseline(self, tmp_path):
        assert len(Baseline.load(str(tmp_path / "absent.json"))) == 0

    def test_unsupported_format_version_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"format_version": 99, "entries": []}))
        with pytest.raises(ValueError, match="unsupported baseline format"):
            Baseline.load(str(path))


class TestRuleFiltering:
    def test_checker_name_selects_whole_family(self, analyse):
        report = analyse(rules=["lock-discipline"])
        rules = {f.rule for f in report.findings}
        assert rules == {"guarded-by"}

    def test_rule_id_selects_single_rule(self, analyse):
        report = analyse(rules=["guarded-by"])
        assert {f.rule for f in report.findings} == {"guarded-by"}
        assert len(report.findings) == 4


class TestParseErrors:
    def test_syntax_error_fails_the_gate(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        report = run_analysis(baseline=Baseline(), root=str(tmp_path))
        assert len(report.parse_errors) == 1
        assert not report.ok()


class TestOutput:
    def test_json_round_trips_with_stable_counts(self, analyse):
        report = analyse()
        payload = json.loads(render(report, "json"))
        assert payload["ok"] is False
        assert payload["counts"]["findings"] == EXPECTED_FINDINGS
        assert payload["counts"]["suppressed"] == EXPECTED_SUPPRESSED
        assert payload["counts"]["parse_errors"] == 0
        assert len(payload["findings"]) == EXPECTED_FINDINGS
        first = payload["findings"][0]
        assert set(first) == {"rule", "path", "line", "severity", "symbol", "message"}

    def test_human_output_has_location_lines_and_summary(self, analyse):
        report = analyse()
        text = render(report, "human")
        assert f"{EXPECTED_FINDINGS} finding(s)" in text
        assert "files scanned" in text
        assert any(line.count(":") >= 3 for line in text.splitlines())
