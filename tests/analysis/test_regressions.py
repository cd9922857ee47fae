"""The shipped bugs this pass exists for must stay dead.

Each test copies a real source file into a scratch repo layout,
re-introduces a bug a previous PR fixed via exact string replacement,
and asserts the gate catches the mutation.  The replacement asserts the
fixed pattern still exists in the shipped file, so a refactor that
rewrites the code invalidates the test loudly instead of silently.
"""

import os

from tools.analysis.baseline import Baseline
from tools.analysis.runner import repo_root, run_analysis

REPO = repo_root()

SHAREDMEM = os.path.join("src", "repro", "parallel", "sharedmem.py")
SERVER = os.path.join("src", "repro", "service", "server.py")


def _scratch_tree(tmp_path, rel, old=None, new=None):
    """Copy ``REPO/rel`` into ``tmp_path/rel``, optionally mutated."""
    with open(os.path.join(REPO, rel), encoding="utf-8") as fh:
        source = fh.read()
    if old is not None:
        assert old in source, (
            f"pattern {old!r} gone from {rel}; update this regression test"
        )
        source = source.replace(old, new)
    dest = tmp_path / rel
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(source, encoding="utf-8")
    return str(tmp_path)


def _run(root):
    return run_analysis(baseline=Baseline(), root=root)


class TestShippedBugsStayDead:
    def test_pool_discard_narrowed_to_exception_is_caught(self, tmp_path):
        # A pool discard under `except Exception` is skipped by a
        # KeyboardInterrupt, leaving a desynchronised pool behind; the
        # shared-memory backend's run_frame must discard under
        # BaseException.
        root = _scratch_tree(
            tmp_path, SHAREDMEM,
            old="except BaseException as exc:",
            new="except Exception as exc:",
        )
        report = _run(root)
        assert any(f.rule == "pool-baseexception" for f in report.findings)

    def test_unmutated_copies_pass(self, tmp_path):
        _scratch_tree(tmp_path, SHAREDMEM)
        root = _scratch_tree(tmp_path, SERVER)
        report = _run(root)
        assert report.findings == []
        assert report.parse_errors == []
