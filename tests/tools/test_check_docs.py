"""tools/check_docs.py: CLI invocations in the docs parse against the CLI."""

from tools import check_docs

TEXT = """Run `python -m repro.cli
serve-bench --requests 8` or the bare CLI (`python -m repro.cli`).

```
PYTHONPATH=src python -m repro.cli anim-bench --trace scrub
python -m repro.cli plan-bench --frame 3
```
"""


def test_finds_fenced_and_wrapped_inline_invocations():
    assert check_docs.cli_invocations(TEXT) == [
        (1, "serve-bench --requests 8"),
        (5, "anim-bench --trace scrub"),
        (6, "plan-bench --frame 3"),
    ]


def test_reports_an_invocation_that_does_not_parse(tmp_path, monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text(TEXT.replace("--frame 3", "--frames 3 --bogus"))
    monkeypatch.setattr(check_docs, "doc_files", lambda: [str(doc)])
    failures = check_docs.check_cli_invocations()
    assert len(failures) == 1
    assert "plan-bench --frames 3 --bogus: does not parse" in failures[0]
    assert "unrecognized arguments: --bogus" in failures[0]


def test_abbreviated_flags_do_not_parse(tmp_path, monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text(TEXT)  # `--frame` abbreviates plan-bench's `--frames`
    monkeypatch.setattr(check_docs, "doc_files", lambda: [str(doc)])
    failures = check_docs.check_cli_invocations()
    assert len(failures) == 1 and "plan-bench --frame 3" in failures[0]


def test_every_documented_invocation_parses():
    assert check_docs.check_cli_invocations() == []


def test_joins_continued_fenced_lines_and_stops_at_shell_operators():
    text = (
        "```sh\n"
        "python -m repro.cli serve-bench --requests 8 \\\n"
        "    --frames 4 | tee out.txt\n"
        "python -m repro.cli tables > tables.txt\n"
        "```\n"
    )
    found = check_docs.cli_invocations(text)
    assert found == [
        (2, "serve-bench --requests 8 --frames 4 | tee out.txt"),
        (4, "tables > tables.txt"),
    ]
    assert [check_docs.split_command(args) for _, args in found] == [
        ["serve-bench", "--requests", "8", "--frames", "4"],
        ["tables"],
    ]


def test_unbalanced_quoting_is_reported_not_raised(tmp_path, monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text("Run `python -m repro.cli render -o 'out.pgm`.\n")
    monkeypatch.setattr(check_docs, "doc_files", lambda: [str(doc)])
    failures = check_docs.check_cli_invocations()
    assert len(failures) == 1 and "cannot be split" in failures[0]


def test_leading_shell_operator_is_reported_not_raised(tmp_path, monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text("```\npython -m repro.cli > out.txt\n```\n")
    monkeypatch.setattr(check_docs, "doc_files", lambda: [str(doc)])
    failures = check_docs.check_cli_invocations()
    assert len(failures) == 1 and "names no command" in failures[0]


def test_reports_a_dotted_name_that_does_not_resolve(tmp_path, monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Serve with `repro.service.server.TextureService`, plan with\n"
        "`repro.parallel.planner.resolve_plan(config, field)`, stream with `repro.anim.*`.\n"
        "Gone: `repro.service.admission.LatencyPredictor`, `repro.service.Nope`.\n"
        "```\nfrom repro.nowhere import nothing\n```\n"
    )
    monkeypatch.setattr(check_docs, "doc_files", lambda: [str(doc)])
    failures = check_docs.check_dotted_names()
    assert len(failures) == 2
    assert "line 3: `repro.service.admission.LatencyPredictor` does not resolve" in failures[0]
    assert "line 3: `repro.service.Nope` does not resolve" in failures[1]


def test_every_documented_dotted_name_resolves():
    assert check_docs.check_dotted_names() == []


def test_reports_a_class_member_that_does_not_resolve(tmp_path, monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Serve with `TextureService.request(frame)`, read `TextureService.cache`,\n"
        "size with `DeltaManifest.chunk_bytes` and walk with `ClusterNode.serve_frame`.\n"
        "Gone: `PeerClient.manifest`, `TextureService.request_async()`.\n"
        "Not judged: `Unknown.member`, `np.zeros`.\n"
    )
    monkeypatch.setattr(check_docs, "doc_files", lambda: [str(doc)])
    failures = check_docs.check_members()
    assert len(failures) == 2
    assert "line 3: `PeerClient.manifest`" in failures[0]
    assert "line 3: `TextureService.request_async()`" in failures[1]


def test_every_documented_class_member_resolves():
    assert check_docs.check_members() == []
