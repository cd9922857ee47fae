"""CLI surfaces: ``python -m tools.analysis`` and ``repro.cli lint``."""

import json
import os

from tools.analysis.__main__ import main as analysis_main

from repro.cli import main as cli_main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
FIXTURE_SRC = os.path.join(FIXTURES, "src", "repro")

HOTLOOP = os.path.join(FIXTURE_SRC, "raster", "hotloop.py")
LOCKSBAD = os.path.join(FIXTURE_SRC, "service", "locksbad.py")


def _fixture_args(*extra):
    return [FIXTURE_SRC, "--root", FIXTURES, "--no-baseline", *extra]


class TestAnalysisMain:
    def test_repo_gate_passes(self, capsys):
        assert analysis_main([]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_fixture_tree_fails_with_findings(self, capsys):
        assert analysis_main(_fixture_args()) == 1
        out = capsys.readouterr().out
        assert "determinism" in out
        assert "guarded-by" in out

    def test_json_format(self, capsys):
        assert analysis_main(_fixture_args("--format", "json")) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"]["findings"] == 26
        assert payload["counts"]["suppressed"] == 2

    def test_rule_filter_scopes_the_gate(self, capsys):
        assert analysis_main(
            [LOCKSBAD, "--root", FIXTURES, "--no-baseline", "--rule", "determinism"]
        ) == 0
        assert analysis_main(
            [HOTLOOP, "--root", FIXTURES, "--no-baseline", "--rule", "determinism"]
        ) == 1

    def test_write_baseline_then_pass(self, capsys, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        args = [FIXTURE_SRC, "--root", FIXTURES, "--baseline", baseline]
        assert analysis_main([*args, "--write-baseline"]) == 0
        assert os.path.exists(baseline)
        assert "wrote 26 baseline entries" in capsys.readouterr().out
        # Grandfathered: the same tree now passes...
        assert analysis_main(args) == 0
        assert "26 baselined" in capsys.readouterr().out
        # ...unless the baseline is ignored.
        assert analysis_main([*args, "--no-baseline"]) == 1

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("determinism", "lock-discipline", "fingerprint-completeness",
                     "pool-baseexception", "atomic-write"):
            assert rule in out


class TestReproCliLint:
    def test_lint_subcommand_forwards_flags(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        assert "determinism" in capsys.readouterr().out

    def test_lint_subcommand_propagates_gate_failure(self, capsys):
        code = cli_main(["lint", *_fixture_args("--format", "json")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["findings"] == 26

    def test_lint_subcommand_passes_on_repo(self, capsys):
        assert cli_main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_listed_in_help(self):
        from repro.cli import build_parser

        assert "lint" in build_parser().format_help()
