"""Lock-discipline race checker over ``#: guarded-by:`` annotations.

The serving spine is a handful of small classes whose mutable state is
protected by exactly one lock each (``LRUTextureCache._lock``,
``SharedMemoryBackend._pool_lock``, ``TokenBucket._lock``, ...).  The
discipline is simple — *every* touch of a guarded attribute happens
inside ``with self.<lock>`` — but nothing enforced it until now: one
refactor that hoists a read out of the ``with`` block reintroduces
exactly the torn-state races the PR history fixed.

Declaring the invariant is a trailing comment on the attribute's
canonical assignment (usually in ``__init__``)::

    self._inflight = {}  #: guarded-by: _lock

The checker then walks every method of the class and flags any
``self.<attr>`` access outside a ``with self.<lock>`` block, with the
repo's structural conventions encoded:

* ``__init__`` is exempt — no other thread can hold a reference yet;
* methods whose name ends in ``_locked`` are exempt — the repo-wide
  convention that such methods are only called with the lock held
  (their *callers* are still checked);
* nested functions and lambdas reset the held-lock state — a closure
  created under the lock typically runs after it was released, so it
  must re-acquire (a callback handed to a worker thread is the
  canonical example);
* guard annotations are inherited by same-module subclasses
  (``DiskTextureCache`` manipulates counters its base declared).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set

from tools.analysis.core import Checker, Finding, ParsedModule

_GUARD_RE = re.compile(r"#:\s*guarded-by:\s*([\w]+)")


def _guard_on_line(mod: ParsedModule, lineno: int) -> Optional[str]:
    match = _GUARD_RE.search(mod.line(lineno))
    return match.group(1) if match else None


def _collect_class_guards(klass: ast.ClassDef, mod: ParsedModule) -> Dict[str, str]:
    """``{attr: lock}`` declared by *klass* itself (no inheritance)."""
    guards: Dict[str, str] = {}
    for node in ast.walk(klass):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        lock = _guard_on_line(mod, node.lineno)
        if lock is None:
            continue
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                guards[target.attr] = lock
            elif isinstance(target, ast.Name):  # class-level declaration
                guards[target.id] = lock
    return guards


class LockDisciplineChecker(Checker):
    """Guarded attributes are only touched under their declared lock."""

    name = "lock-discipline"
    rules = ("guarded-by",)
    description = (
        "attributes annotated `#: guarded-by: <lock>` may only be accessed "
        "inside `with self.<lock>` (outside __init__ and *_locked methods)"
    )

    def check_module(self, mod: ParsedModule) -> Iterable[Finding]:
        classes = {
            node.name: node
            for node in ast.walk(mod.tree)
            if isinstance(node, ast.ClassDef)
        }
        own_guards = {
            name: _collect_class_guards(node, mod) for name, node in classes.items()
        }

        def resolved_guards(name: str, seen: Set[str]) -> Dict[str, str]:
            if name in seen:
                return {}
            seen.add(name)
            guards: Dict[str, str] = {}
            for base in classes[name].bases:
                if isinstance(base, ast.Name) and base.id in classes:
                    guards.update(resolved_guards(base.id, seen))
            guards.update(own_guards[name])
            return guards

        for name, klass in classes.items():
            guards = resolved_guards(name, set())
            if guards:
                yield from self._check_class(mod, klass, guards)

    # -- per-class walk --------------------------------------------------------
    def _check_class(
        self, mod: ParsedModule, klass: ast.ClassDef, guards: Dict[str, str]
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for method in klass.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__" or method.name.endswith("_locked"):
                continue
            self._walk(mod, klass, method, method, guards, frozenset(), findings)
        return findings

    def _walk(
        self,
        mod: ParsedModule,
        klass: ast.ClassDef,
        method: ast.AST,
        node: ast.AST,
        guards: Dict[str, str],
        held: "frozenset[str]",
        findings: List[Finding],
    ) -> None:
        self._walk_children(
            mod, klass, method, ast.iter_child_nodes(node), guards, held, findings
        )

    def _walk_children(
        self,
        mod: ParsedModule,
        klass: ast.ClassDef,
        method: ast.AST,
        children: "Iterable[ast.AST]",
        guards: Dict[str, str],
        held: "frozenset[str]",
        findings: List[Finding],
    ) -> None:
        for child in children:
            if isinstance(child, (ast.With, ast.AsyncWith)):
                acquired = set()
                for item in child.items:
                    ctx = item.context_expr
                    self._walk(mod, klass, method, ctx, guards, held, findings)
                    if (isinstance(ctx, ast.Attribute)
                            and isinstance(ctx.value, ast.Name)
                            and ctx.value.id == "self"):
                        acquired.add(ctx.attr)
                    if item.optional_vars is not None:
                        self._walk(
                            mod, klass, method, item.optional_vars,
                            guards, held, findings,
                        )
                # Body statements go through the same dispatch as any
                # other child: a closure defined directly in the `with`
                # body must still reset the held set, and a nested
                # `with` must still extend it.
                inner = held | acquired
                self._walk_children(
                    mod, klass, method, child.body, guards, inner, findings
                )
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # A closure outruns the lock it was created under.
                self._walk(mod, klass, method, child, guards, frozenset(), findings)
                continue
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "self"
                    and child.attr in guards
                    and guards[child.attr] not in held):
                lock = guards[child.attr]
                findings.append(Finding(
                    rule="guarded-by",
                    path=mod.rel,
                    line=child.lineno,
                    message=(
                        f"self.{child.attr} is declared guarded-by {lock} but "
                        f"accessed without `with self.{lock}` (held here: "
                        f"{sorted(held) or 'none'})"
                    ),
                    symbol=f"{klass.name}.{getattr(method, 'name', '<lambda>')}",
                ))
            self._walk(mod, klass, method, child, guards, held, findings)
