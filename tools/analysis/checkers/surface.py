"""Public-surface checker: no library API that only the tests call.

Each job in the library should have one implementation, and code that
nothing but its own tests runs is a second implementation waiting to
drift.  This cross-file checker flags every public (no leading
underscore) top-level function or class in a ``repro.*`` module whose
name has no code reference anywhere in :data:`REFERENCE_DIRS` outside
its own definition.  A code reference is a name (``ast.Name``), an
attribute (``ast.Attribute``) or a ``from ... import`` name; a word in
a docstring, a comment or a string (``__all__`` included) is not one.
Package ``__init__`` files do not count: a re-export is not a use.
``tests/`` is not searched, so a helper the tests need as an oracle
belongs under ``tests/``.

The judgement needs the whole package: a scan of one file or one
subpackage still reads every reference tree, but it would report names
only its own slice defines, so the checker runs only when the scanned
corpus holds the package root (``src/repro/__init__.py``), as the
default gate does.  A deliberate keep goes in the baseline with its
reason.
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from tools.analysis.core import Checker, Finding, ParsedModule

#: Package whose public surface is judged.
PACKAGE = "repro"

#: Trees, relative to the repo root, searched for references.
REFERENCE_DIRS = ("src", "benchmarks", "examples", "perfbench", "tools")

_SKIP_DIRS = frozenset({"__pycache__", ".git"})


def _reference_files(root: str) -> Iterator[str]:
    for rel in REFERENCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, rel)):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.join(dirpath, name)


def _code_references(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` for every name, attribute and ``from`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno or node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _reference_lines(root: str) -> "Dict[str, List[Tuple[str, int]]]":
    """``{name: [(abspath, line), ...]}`` over every reference file."""
    index: "Dict[str, List[Tuple[str, int]]]" = defaultdict(list)
    for path in _reference_files(root):
        try:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue
        path = os.path.abspath(path)
        for name, lineno in _code_references(tree):
            index[name].append((path, lineno))
    return index


class PublicSurfaceChecker(Checker):
    name = "unused-public"
    rules = ("unused-public",)
    description = (
        "public top-level functions and classes in repro are referenced "
        "outside their own definition, __init__ re-exports and tests/"
    )

    def check_project(self, corpus: Dict[str, ParsedModule]) -> Iterable[Finding]:
        package = corpus.get(PACKAGE)
        if package is None:
            return []
        root = package.path[: -len(package.rel)]
        index = _reference_lines(root)
        findings: List[Finding] = []
        for mod in sorted(corpus.values(), key=lambda m: m.rel):
            if not mod.module.startswith(PACKAGE + ".") or mod.path.endswith("__init__.py"):
                continue
            for node in mod.tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if node.name.startswith("_"):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                own: Set[Tuple[str, int]] = {
                    (mod.path, line) for line in range(first, node.end_lineno + 1)
                }
                if any(ref not in own for ref in index.get(node.name, ())):
                    continue
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                findings.append(
                    Finding(
                        rule="unused-public",
                        path=mod.rel,
                        line=node.lineno,
                        message=(
                            f"public {kind} {node.name!r} has no reference outside "
                            "its definition, __init__ re-exports and tests/"
                        ),
                        symbol=node.name,
                    )
                )
        return findings
