"""The public-surface checker (``unused-public``).

The fixture tree under ``fixtures/surface`` is a miniature repo: a
``repro`` package whose public names are used from inside the package,
from ``benchmarks/``, only from ``tests/`` and the package ``__init__``,
or only in a docstring, a comment and a string, and one whose name only
a benchmark's own variable shares; a class that only an import and
annotations name, and a function called through an import alias.  Its class ``Widget`` has members
used the same ways, plus one named only by a bare name, and instance
attributes read from the package, read only from ``tests/``, or only
ever written.  The classes of ``typed.py`` share member names, and
``benchmarks/bench_typed.py`` uses them through receivers whose class
is plain (an annotated parameter, ``Cls(...)``, ``self.x``, a dict) or
open (an unannotated parameter).
"""

import os

from tools.analysis.baseline import Baseline
from tools.analysis.runner import run_analysis

SURFACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "surface")
SURFACE_SRC = os.path.join(SURFACE, "src", "repro")
MOD = os.path.join("src", "repro", "mod.py")


def _run(paths=(SURFACE_SRC,), baseline=None):
    return run_analysis(
        paths=list(paths),
        rules=["unused-public"],
        baseline=Baseline() if baseline is None else baseline,
        root=SURFACE,
    )


class TestPublicSurface:
    def test_flags_names_only_tests_and_reexports_use(self):
        report = _run()
        assert sorted(f.symbol for f in report.findings if f.path == MOD) == [
            "AnnotatedOnly", "Orphan", "Widget.named_only", "Widget.read_by_tests",
            "Widget.tested_only", "Widget.tested_prop", "Widget.written_only",
            "mentioned_only", "orphan", "recursive_orphan", "shadowed_only",
        ]
        assert {f.path for f in report.findings} == {MOD, os.path.join("src", "repro", "typed.py")}
        assert {f.rule for f in report.findings} == {"unused-public"}

    def test_a_name_in_prose_or_a_string_is_not_a_use(self):
        finding = next(f for f in _run().findings if f.symbol == "mentioned_only")
        assert finding.path == MOD

    def test_a_variable_of_the_same_name_is_not_a_use(self):
        # bench_mod.py assigns and reads its own `shadowed_only`; a module
        # that binds a name by assignment never calls the function.
        finding = next(f for f in _run().findings if f.symbol == "shadowed_only")
        assert finding.message.startswith("public function 'shadowed_only'")
        assert "used_by_bench" not in {f.symbol for f in _run().findings}

    def test_an_import_or_an_annotation_is_not_a_use(self):
        # other.py imports AnnotatedOnly and names it in a parameter, a
        # return and a dataclass field annotation, but never builds it.
        finding = next(f for f in _run().findings if f.symbol == "AnnotatedOnly")
        assert finding.message.startswith("public class 'AnnotatedOnly'")

    def test_a_call_through_an_import_alias_is_a_use(self):
        assert "used_under_alias" not in {f.symbol for f in _run().findings}

    def test_message_names_the_kind(self):
        messages = {f.symbol: f.message for f in _run().findings}
        assert messages["Orphan"].startswith("public class 'Orphan'")
        assert messages["orphan"].startswith("public function 'orphan'")

    def test_members_are_judged_by_attribute_references(self):
        flagged = {
            f.symbol for f in _run().findings
            if f.path == MOD and f.message.startswith("public member")
        }
        # Test-only members are flagged; a property's getter and setter
        # are one member; a bare name or a string never reaches a member.
        assert flagged == {"Widget.tested_only", "Widget.tested_prop", "Widget.named_only"}
        # Called by attribute from src/ or benchmarks/: used.  Underscored
        # and dunder members are not judged.
        for kept in ("called_from_src", "called_from_bench", "_private", "__len__"):
            assert f"Widget.{kept}" not in flagged

    def test_instance_attributes_are_judged_by_loads(self):
        flagged = {f.symbol: f.message for f in _run().findings}
        # Read only from tests/: flagged, and named as an attribute.
        assert flagged["Widget.read_by_tests"].startswith(
            "public attribute 'Widget.read_by_tests'"
        )
        # Assigned in other.py and augmented in __init__, never loaded.
        assert "Widget.written_only" in flagged
        # Loaded from inside the package: used.  Underscored: not judged.
        for kept in ("read_in_src", "_private_attr"):
            assert f"Widget.{kept}" not in flagged

    def test_member_message_names_class_and_member(self):
        finding = next(f for f in _run().findings if f.symbol == "Widget.tested_only")
        assert finding.message.startswith("public member 'Widget.tested_only'")

    def test_scan_without_the_package_root_is_not_judged(self):
        report = _run(paths=[os.path.join(SURFACE_SRC, "mod.py")])
        assert report.findings == []

    def test_baseline_keeps_a_deliberate_keep(self):
        kept = next(f for f in _run().findings if f.symbol == "orphan")
        report = _run(baseline=Baseline([kept.key()]))
        assert [f.symbol for f in report.baselined] == ["orphan"]
        assert sorted(f.symbol for f in report.findings) == [
            "AnnotatedOnly", "Cache.clear", "Orphan", "Other.evict", "Other.hits", "Other.ping",
            "Widget.named_only", "Widget.read_by_tests",
            "Widget.tested_only", "Widget.tested_prop", "Widget.written_only",
            "mentioned_only", "recursive_orphan", "shadowed_only",
        ]


class TestTypedReceivers:
    """A use counts for its receiver's class wherever the module makes
    that class plain (``typed.py`` and ``bench_typed.py``)."""

    def _flagged(self):
        return {f.symbol for f in _run().findings}

    def test_a_member_only_a_builtin_shadows_is_flagged(self):
        # bench_typed.py calls clear() only on a dict literal.
        assert "Cache.clear" in self._flagged()

    def test_a_typed_use_keeps_its_class_member_only(self):
        # ``cache: Cache`` keeps Cache.ping and the attribute Cache.hits;
        # Other's same-named member and attribute are flagged.
        flagged = self._flagged()
        assert "Cache.ping" not in flagged and "Cache.hits" not in flagged
        assert {"Other.ping", "Other.hits"} <= flagged

    def test_an_open_receiver_keeps_every_member_of_the_name(self):
        # ``thing`` has no annotation: the name rule still applies.
        assert "Cache.refresh" not in self._flagged()

    def test_a_member_inherited_by_a_typed_subclass_is_kept(self):
        # Sub().inherited() resolves to Sub, whose base defines it.
        assert "Base.inherited" not in self._flagged()

    def test_self_attributes_resolve_through_init(self):
        # Holder.__init__ binds self.cache = Cache(): self.cache.evict()
        # keeps Cache.evict, not Other.evict.
        flagged = self._flagged()
        assert "Cache.evict" not in flagged and "Holder.cache" not in flagged
        assert "Other.evict" in flagged
