"""Public-surface checker: no library API that only the tests call.

Each job in the library should have one implementation, and code that
nothing but its own tests runs is a second implementation waiting to
drift.  This cross-file checker flags every public (no leading
underscore) top-level function or class in a ``repro.*`` module whose
name has no code reference anywhere in :data:`REFERENCE_DIRS` outside
its own definition.  A code reference is a name (``ast.Name``) or an
attribute (``ast.Attribute``) that the code evaluates.  A word in a
docstring, a comment or a string (``__all__`` included) is not one;
neither is a bare name that the referencing module itself binds by
assignment (a local ``timeline = ...`` is not a call of ``timeline``),
a ``from ... import`` name (importing a name does not use it; a name
imported under an alias is used where the alias is), or a name inside
a type annotation (a parameter, return or ``AnnAssign`` annotation,
dataclass fields included): a class that only annotations name is
never built or called.  Package ``__init__`` files do not count: a
re-export is not a use.
``tests/`` is not searched, so a helper the tests need as an oracle
belongs under ``tests/``.

It judges the members of those modules' top-level classes too: every
public method, property, classmethod and staticmethod, reported as
``Class.member``.  A member is reached only by attribute, so only an
``ast.Attribute`` of its name counts as a reference to it, and a
property's getter and setter are one member.  It judges their instance
attributes as well: every public ``self.<name>`` that a class's
``__init__`` assigns, also reported as ``Class.name``.  An attribute is
used only where code *loads* it (``ast.Attribute`` in a load context);
a store, an augmented assignment or a ``del`` only writes it.  The checker knows names, not types: a
same-named attribute anywhere keeps a member or an attribute alive.

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

#: ``{name: [(abspath, line), ...]}``.
Index = Dict[str, List[Tuple[str, int]]]

_Def = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reference_files(root: str) -> Iterator[str]:
    for rel in REFERENCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, rel)):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.join(dirpath, name)


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    """Every parameter, return and ``AnnAssign`` annotation in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, _Def):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        if annotation is not None:
            yield annotation


def _code_references(tree: ast.AST) -> Iterator[Tuple[str, int, bool]]:
    """``(name, line, is_attribute)`` for every name and attribute the
    code evaluates outside an annotation.  A name the module binds by
    assignment is its own variable, so none of its occurrences there is
    a reference; an import alias stands for the name it imports."""
    bound = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.asname
    }
    annotated = {id(node) for ann in _annotations(tree) for node in ast.walk(ann)}
    for node in ast.walk(tree):
        if id(node) in annotated:
            continue
        if isinstance(node, ast.Name):
            if node.id not in bound:
                yield aliases.get(node.id, node.id), node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno or node.lineno, True


def _reference_lines(root: str) -> Tuple[Index, Index, Index]:
    """Every code reference, the attributes alone, and the attribute
    loads alone, over every reference file."""
    names: Index = defaultdict(list)
    attributes: Index = defaultdict(list)
    loads: Index = defaultdict(list)
    for path in _reference_files(root):
        try:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue
        path = os.path.abspath(path)
        for name, lineno, is_attribute in _code_references(tree):
            names[name].append((path, lineno))
            if is_attribute:
                attributes[name].append((path, lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads[node.attr].append((path, node.end_lineno or node.lineno))
    return names, attributes, loads


def _members(cls: ast.ClassDef) -> Dict[str, List[ast.AST]]:
    """*cls*'s public methods by name; a property's getter and setter
    share one entry."""
    members: Dict[str, List[ast.AST]] = defaultdict(list)
    for node in cls.body:
        if isinstance(node, _Def) and not node.name.startswith("_"):
            members[node.name].append(node)
    return members


def _instance_attributes(cls: ast.ClassDef) -> Dict[str, List[ast.AST]]:
    """The public ``self.<name>`` attributes *cls*'s ``__init__``
    assigns, by name, minus those that are also methods."""
    attributes: Dict[str, List[ast.AST]] = defaultdict(list)
    for node in cls.body:
        if isinstance(node, _Def) and node.name == "__init__" and node.args.args:
            this = node.args.args[0].arg
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == this
                        and not sub.attr.startswith("_")):
                    attributes[sub.attr].append(sub)
    for member in _members(cls):
        attributes.pop(member, None)
    return attributes


class PublicSurfaceChecker(Checker):
    name = "unused-public"
    rules = ("unused-public",)
    description = (
        "public top-level functions and classes in repro, and the public "
        "members and instance attributes of those classes, are referenced "
        "outside their own definition, __init__ re-exports and tests/"
    )

    def check_project(self, corpus: Dict[str, ParsedModule]) -> Iterable[Finding]:
        package = corpus.get(PACKAGE)
        if package is None:
            return []
        root = package.path[: -len(package.rel)]
        names, attributes, loads = _reference_lines(root)
        findings: List[Finding] = []

        def judge(mod: ParsedModule, symbol: str, defs: List[ast.AST],
                  index: Index, kind: str) -> None:
            own: Set[Tuple[str, int]] = set()
            for node in defs:
                decorators = getattr(node, "decorator_list", [])
                first = min([node.lineno] + [d.lineno for d in decorators])
                own.update((mod.path, line) for line in range(first, node.end_lineno + 1))
            if any(ref not in own for ref in index.get(symbol.rpartition(".")[2], ())):
                return
            findings.append(
                Finding(
                    rule="unused-public",
                    path=mod.rel,
                    line=defs[0].lineno,
                    message=(
                        f"public {kind} {symbol!r} has no reference outside "
                        "its definition, __init__ re-exports and tests/"
                    ),
                    symbol=symbol,
                )
            )

        for mod in sorted(corpus.values(), key=lambda m: m.rel):
            if not mod.module.startswith(PACKAGE + ".") or mod.path.endswith("__init__.py"):
                continue
            for node in mod.tree.body:
                if isinstance(node, _Def) and not node.name.startswith("_"):
                    judge(mod, node.name, [node], names, "function")
                elif isinstance(node, ast.ClassDef):
                    if not node.name.startswith("_"):
                        judge(mod, node.name, [node], names, "class")
                    for member, defs in _members(node).items():
                        judge(mod, f"{node.name}.{member}", defs, attributes, "member")
                    for attr, defs in _instance_attributes(node).items():
                        judge(mod, f"{node.name}.{attr}", defs, loads, "attribute")
        return findings
