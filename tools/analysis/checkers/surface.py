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
a store, an augmented assignment or a ``del`` only writes it.

An attribute reference counts for the class of its receiver wherever
the referencing module makes that class plain (:class:`_Source`):
``self`` in a method, ``self.x`` where the class's methods only ever
assign ``x`` one class (``self.x = Cls(...)``, ``self.x: Cls``), a
parameter annotated with a ``repro`` class, a local bound to
``Cls(...)`` and a receiver that is itself ``Cls(...)``.  Builtin
containers and constants (``[]``, ``{}``, ``set()``, ``OrderedDict()``,
``deque()``, ``List[...]`` hints, ...) resolve to no ``repro`` class at
all.  A use that resolves to class C keeps the member on C, on C's
``repro`` bases and on C's subclasses, not on an unrelated class that
shares the name; a receiver that resolves to nothing keeps every
same-named member, as before, so typing only ever finds more.

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
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from tools.analysis.core import Checker, Finding, ParsedModule, module_name

#: Package whose public surface is judged.
PACKAGE = "repro"

#: Trees, relative to the repo root, searched for references.
REFERENCE_DIRS = ("src", "benchmarks", "examples", "perfbench", "tools")

_SKIP_DIRS = frozenset({"__pycache__", ".git"})

#: A class as ``(module, name)``.  :data:`BUILTIN` stands for every
#: builtin container and constant: none has a ``repro`` member.
Key = Tuple[str, str]
BUILTIN: Key = ("builtins", "")

#: A resolved expression: ``("class", key)`` for a class object,
#: ``("inst", key)`` for an instance, ``None`` where the module does not
#: make the class plain.
Type = Optional[Tuple[str, Key]]

_NONE: Type = ("inst", ("builtins", "None"))

#: ``{name: [(abspath, line, receiver type), ...]}``.
Index = Dict[str, List[Tuple[str, int, Type]]]

#: How a name or ``self`` attribute gets bound: ``("expr", value)``,
#: ``("annotated", AnnAssign)`` or ``("type", resolved)``.
Binding = Tuple[str, object]

_Def = (ast.FunctionDef, ast.AsyncFunctionDef)
_LITERALS = (ast.List, ast.Dict, ast.Set, ast.Tuple, ast.ListComp,
             ast.DictComp, ast.SetComp, ast.JoinedStr)
_BUILTIN_CLASSES = frozenset({"dict", "list", "set", "tuple", "frozenset", "str", "bytes"})
_COLLECTIONS = frozenset({"OrderedDict", "deque", "defaultdict"})
_CONTAINER_HINTS = frozenset({"List", "Dict", "Set", "Tuple", "list", "dict", "set", "tuple"})


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


def _code_references(tree: ast.AST) -> Iterator[Tuple[ast.expr, str, int]]:
    """``(node, name, line)`` for every name and attribute the code
    evaluates outside an annotation.  A name the module binds by
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
                yield node, aliases.get(node.id, node.id), node.lineno
        elif isinstance(node, ast.Attribute):
            yield node, node.attr, node.end_lineno or node.lineno


def _in_package(module: str) -> bool:
    return module == PACKAGE or module.startswith(PACKAGE + ".")


def _decorators(func: ast.AST) -> Set[str]:
    return {d.id for d in getattr(func, "decorator_list", ()) if isinstance(d, ast.Name)}


def _self_name(func: ast.AST) -> Optional[str]:
    """The name a method calls its instance, or ``None`` for a static
    method or a method without positional parameters."""
    positional = func.args.posonlyargs + func.args.args
    if not positional or "staticmethod" in _decorators(func):
        return None
    return positional[0].arg


def _closure(key: Key, edges: Dict[Key, Set[Key]]) -> Set[Key]:
    """Every key reachable from *key* along *edges*."""
    seen: Set[Key] = set()
    todo = [key]
    while todo:
        for nxt in edges.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def _combine(types: Iterable[Type]) -> Type:
    """The one class every binding agrees on; ``None`` bindings (an
    ``Optional``) are skipped, and any unknown binding makes it unknown."""
    found: Set[Tuple[str, Key]] = set()
    for resolved in types:
        if resolved is None:
            return None
        if resolved != _NONE:
            found.add(resolved)
    return found.pop() if len(found) == 1 else None


class _Source:
    """One reference file, with what it makes plain about the class of
    the values its names and attributes hold.

    Scopes are the module, each function, lambda and class body; a
    comprehension's targets count as bindings of the scope around it.
    A name resolves where every binding it has in its scope agrees on
    one class: a ``Cls(...)`` value, a ``Cls`` annotation (``Optional``
    and ``| None`` included), an import of a ``repro`` class, the class
    statement itself, or ``self``/``cls`` in a method.  Anything else,
    or a name a ``global``/``nonlocal`` statement touches, is unknown.
    """

    def __init__(self, path: str, module: str, tree: ast.Module, program: "_Program"):
        self.path = path
        self.module = module
        self.tree = tree
        self.program = program
        self.parent: Dict[ast.AST, ast.AST] = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        self.redeclared = {
            name for node in ast.walk(tree)
            if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names
        }
        self._bindings: Dict[ast.AST, Dict[str, List[Binding]]] = {}
        self._memo: Dict[ast.AST, Type] = {}
        self._self_stores: Dict[ast.ClassDef, Dict[str, List[Binding]]] = {}

    def class_key(self, node: ast.ClassDef) -> Optional[Key]:
        if _in_package(self.module) and self.parent.get(node) is self.tree:
            return (self.module, node.name)
        return None

    def scope_of(self, node: ast.AST) -> ast.AST:
        child, parent = node, self.parent.get(node)
        while parent is not None:
            if isinstance(parent, ast.Lambda) and child is parent.body:
                return parent
            if isinstance(parent, _Def + (ast.ClassDef,)) and any(child is n for n in parent.body):
                return parent
            child, parent = parent, self.parent.get(parent)
        return self.tree

    # -- bindings ---------------------------------------------------------

    def _bindings_of(self, scope: ast.AST) -> Dict[str, List[Binding]]:
        found = self._bindings.get(scope)
        if found is None:
            found = self._bindings[scope] = self._collect(scope)
        return found

    def _collect(self, scope: ast.AST) -> Dict[str, List[Binding]]:
        out: Dict[str, List[Binding]] = defaultdict(list)
        if isinstance(scope, _Def + (ast.Lambda,)):
            args = scope.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    out[arg.arg].append(("type", self._param_type(scope, arg)))
        stack: List[ast.AST] = [scope.body] if isinstance(scope, ast.Lambda) else list(scope.body)
        while stack:
            node = stack.pop()
            if isinstance(node, _Def + (ast.ClassDef,)):
                key = self.class_key(node) if isinstance(node, ast.ClassDef) else None
                out[node.name].append(("type", ("class", key) if key else None))
                continue
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                out[node.id].append(self._store_binding(node))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    out[bound].append(("type", self._imported(node, alias)))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                out[node.name].append(("type", None))
            stack.extend(ast.iter_child_nodes(node))
        return out

    def _store_binding(self, target: ast.expr) -> Binding:
        parent = self.parent[target]
        if isinstance(parent, ast.Assign) and any(t is target for t in parent.targets):
            return ("expr", parent.value)
        if isinstance(parent, ast.AnnAssign) and parent.target is target:
            return ("annotated", parent)
        return ("type", None)

    def _param_type(self, func: ast.AST, arg: ast.arg) -> Type:
        owner = self.parent.get(func)
        if isinstance(func, _Def) and isinstance(owner, ast.ClassDef) and _self_name(func) == arg.arg:
            key = self.class_key(owner)
            if key is not None:
                return ("class" if "classmethod" in _decorators(func) else "inst", key)
        return self.hint(arg.annotation) if arg.annotation is not None else None

    def _imported(self, node: ast.AST, alias: ast.alias) -> Type:
        if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
            return None
        if node.module == "collections" and alias.name in _COLLECTIONS:
            return ("class", BUILTIN)
        if _in_package(node.module):
            key = self.program.find_class(node.module, alias.name)
            return ("class", key) if key else None
        return None

    def self_stores(self, cls: ast.ClassDef) -> Dict[str, List[Binding]]:
        """How *cls*'s methods bind each ``self.<name>``, and how its
        body binds class-level names (dataclass fields)."""
        out = self._self_stores.get(cls)
        if out is not None:
            return out
        out = self._self_stores[cls] = defaultdict(list)
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out[node.target.id].append(("annotated", node))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out[target.id].append(("expr", node.value))
            elif isinstance(node, _Def) and _self_name(node):
                this = _self_name(node)
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == this):
                        out[sub.attr].append(self._store_binding(sub))
        return out

    def foreign_stores(self) -> Iterator[str]:
        """Attribute names this file assigns on anything other than the
        ``self`` of a method of a ``repro`` class or a base-less class."""
        for node in ast.walk(self.tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)):
                continue
            func = self.scope_of(node)
            owner = self.parent.get(func)
            own = (
                isinstance(func, _Def) and isinstance(owner, ast.ClassDef)
                and isinstance(node.value, ast.Name) and node.value.id == _self_name(func)
                and (self.class_key(owner) is not None or not owner.bases)
            )
            if not own:
                yield node.attr

    # -- resolution -------------------------------------------------------

    def binding_type(self, binding: Binding) -> Type:
        kind, value = binding
        if kind == "expr":
            return self.resolve(value)
        if kind == "annotated":
            # The value's class where it is plain, else the annotation's.
            resolved = self.resolve(value.value) if value.value is not None else None
            return self.hint(value.annotation) if resolved in (None, _NONE) else resolved
        return value

    def lookup(self, name: str, scope: ast.AST) -> Type:
        if name in self.redeclared:
            return None
        start = scope
        while True:
            if scope is start or not isinstance(scope, ast.ClassDef):
                bound = self._bindings_of(scope).get(name)
                if bound is not None:
                    return _combine(self.binding_type(b) for b in bound)
            if scope is self.tree:
                return ("class", BUILTIN) if name in _BUILTIN_CLASSES else None
            scope = self.scope_of(scope)

    def resolve(self, node: ast.expr) -> Type:
        if node in self._memo:
            return self._memo[node]
        self._memo[node] = None  # a cycle resolves to nothing
        resolved = self._memo[node] = self._resolve(node)
        return resolved

    def _resolve(self, node: ast.expr) -> Type:
        if isinstance(node, ast.Name):
            return self.lookup(node.id, self.scope_of(node))
        if isinstance(node, ast.Constant):
            return _NONE if node.value is None else ("inst", BUILTIN)
        if isinstance(node, _LITERALS):
            return ("inst", BUILTIN)
        if isinstance(node, ast.Call):
            func = self.resolve(node.func)
            return ("inst", func[1]) if func and func[0] == "class" else None
        if isinstance(node, ast.Attribute):
            owner = self.resolve(node.value)
            if owner and owner[0] == "inst" and owner[1] in self.program.classes:
                return self.program.attribute_type(owner[1], node.attr)
            return None
        if isinstance(node, ast.IfExp):
            return _combine([self.resolve(node.body), self.resolve(node.orelse)])
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            return _combine([self.resolve(value) for value in node.values])
        return None

    def hint(self, node: ast.expr, scope: Optional[ast.AST] = None) -> Type:
        """The instance an annotation declares, if it names one class."""
        scope = self.scope_of(node) if scope is None else scope
        if isinstance(node, ast.Constant):
            if node.value is None:
                return _NONE
            if not isinstance(node.value, str):
                return None
            try:
                return self.hint(ast.parse(node.value, mode="eval").body, scope)
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            generic = node.value.id if isinstance(node.value, ast.Name) else None
            if generic in _CONTAINER_HINTS or (
                generic and self.lookup(generic, scope) == ("class", BUILTIN)
            ):
                return ("inst", BUILTIN)
            if generic == "Optional":
                return _combine([self.hint(node.slice, scope)])
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _combine([self.hint(node.left, scope), self.hint(node.right, scope)])
        if isinstance(node, ast.Name):
            found = self.lookup(node.id, scope)
            return ("inst", found[1]) if found and found[0] == "class" else None
        return None


class _Program:
    """Every reference file, the ``repro`` classes they define, and the
    attribute references they make, each with its receiver's class."""

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        self.sources: List[_Source] = []
        for path in _reference_files(root):
            try:
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
            except (OSError, UnicodeDecodeError, SyntaxError):
                continue
            under_src = os.path.abspath(path).startswith(os.path.abspath(src) + os.sep)
            module = module_name(path, src if under_src else root)
            self.sources.append(_Source(os.path.abspath(path), module, tree, self))
        self.classes: Dict[Key, Tuple[_Source, ast.ClassDef]] = {
            (source.module, node.name): (source, node)
            for source in self.sources if _in_package(source.module)
            for node in source.tree.body if isinstance(node, ast.ClassDef)
        }
        self._by_name: Dict[str, List[Key]] = defaultdict(list)
        for key in self.classes:
            self._by_name[key[1]].append(key)
        self.bases: Dict[Key, Set[Key]] = {}
        self.subclasses: Dict[Key, Set[Key]] = defaultdict(set)
        for key, (source, node) in self.classes.items():
            resolved = (source.resolve(base) for base in node.bases)
            self.bases[key] = {b[1] for b in resolved if b and b[0] == "class" and b[1] in self.classes}
            for base in self.bases[key]:
                self.subclasses[base].add(key)
        self.foreign = {name for source in self.sources for name in source.foreign_stores()}
        self._attribute_types: Dict[Tuple[Key, str], Type] = {}

    def find_class(self, module: str, name: str) -> Optional[Key]:
        """The ``repro`` class that ``from <module> import <name>`` binds:
        the module's own, else the one class of that name re-exported."""
        if (module, name) in self.classes:
            return (module, name)
        keys = self._by_name.get(name, [])
        return keys[0] if len(keys) == 1 else None

    def lineage(self, key: Key) -> Set[Key]:
        """*key*, its ``repro`` bases and its subclasses, transitively."""
        return {key} | _closure(key, self.bases) | _closure(key, self.subclasses)

    def attribute_type(self, key: Key, attr: str) -> Type:
        """The class every assignment of ``attr`` on an instance of *key*
        agrees on, in *key*'s lineage; unknown if anything else assigns
        an attribute of that name."""
        memo = (key, attr)
        if memo not in self._attribute_types:
            self._attribute_types[memo] = None  # a cycle resolves to nothing
            if attr not in self.foreign:
                self._attribute_types[memo] = _combine(
                    source.binding_type(binding)
                    for source, cls in map(self.classes.get, self.lineage(key))
                    for binding in source.self_stores(cls).get(attr, ())
                )
        return self._attribute_types[memo]

    def references(self) -> Tuple[Index, Index, Index]:
        """Every code reference, the attributes alone, and the attribute
        loads alone; an attribute carries its receiver's class."""
        names: Index = defaultdict(list)
        attributes: Index = defaultdict(list)
        loads: Index = defaultdict(list)
        for source in self.sources:
            for node, name, lineno in _code_references(source.tree):
                names[name].append((source.path, lineno, None))
                if isinstance(node, ast.Attribute):
                    attributes[name].append((source.path, lineno, source.resolve(node.value)))
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads[node.attr].append(
                        (source.path, node.end_lineno or node.lineno, source.resolve(node.value))
                    )
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
        program = _Program(root)
        names, attributes, loads = program.references()
        findings: List[Finding] = []

        def judge(mod: ParsedModule, symbol: str, defs: List[ast.AST],
                  index: Index, kind: str, lineage: Optional[Set[Key]] = None) -> None:
            own: Set[Tuple[str, int]] = set()
            for node in defs:
                decorators = getattr(node, "decorator_list", [])
                first = min([node.lineno] + [d.lineno for d in decorators])
                own.update((mod.path, line) for line in range(first, node.end_lineno + 1))
            for path, line, receiver in index.get(symbol.rpartition(".")[2], ()):
                if (path, line) not in own and (
                    lineage is None or receiver is None or receiver[1] in lineage
                ):
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
                    lineage = program.lineage((mod.module, node.name))
                    for member, defs in _members(node).items():
                        judge(mod, f"{node.name}.{member}", defs, attributes, "member", lineage)
                    for attr, defs in _instance_attributes(node).items():
                        judge(mod, f"{node.name}.{attr}", defs, loads, "attribute", lineage)
        return findings
