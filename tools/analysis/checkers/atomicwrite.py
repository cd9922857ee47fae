"""Atomic-write checker for durable artifacts.

The disk cache, checkpoint store and DNS chunk store all promise that a
reader never observes a partial file — a crash mid-write must leave
either the old bytes or the new bytes, never a truncated ``.npz`` that
every later open treats as corruption.  The repo's one blessed idiom is
:func:`repro.utils.fileio.atomic_write` (same-directory temp file +
``os.replace``).

In modules matching :data:`DURABLE_MODULES`, this checker flags direct
path writes:

* ``open(path, "w"/"wb"/"a"/"x")`` — whether or not it is inside a
  ``with`` (a context manager closes the handle; it does not make the
  write atomic);
* ``numpy`` path writers: ``np.save``/``np.savez``/
  ``np.savez_compressed``/``np.savetxt`` and ``arr.tofile``;
* ``pathlib``'s ``.write_text()``/``.write_bytes()``.

Not flagged:

* writes to an open *handle* — the first argument is a lambda/function
  parameter conventionally named like a handle (``fh``, ``fp``,
  ``fileobj``, ...), which is exactly what an ``atomic_write`` writer
  callback receives;
* functions that perform the temp + ``os.replace`` dance themselves
  (an ``os.replace`` call in the enclosing function);
* :mod:`repro.utils.fileio` itself, the one place the idiom lives.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterable, List, Optional, Sequence, Set

from tools.analysis.core import Checker, Finding, ParsedModule, dotted, enclosing_symbol

#: Modules whose on-disk artifacts are durable (caches, checkpoints,
#: stores, exported images) and therefore must land atomically.
DURABLE_MODULES = (
    "repro.service.*",
    "repro.anim.*",
    "repro.apps.dns.store",
    "repro.fields.io",
    "repro.viz.*",
    # Cluster nodes own disk tiers through the blob store; any direct
    # path write in the tier would break the same no-partial-reads
    # promise.
    "repro.cluster.*",
)

#: The implementation of the idiom is exempt from itself.
EXEMPT_MODULES = ("repro.utils.fileio",)

_NUMPY_PATH_WRITERS = frozenset({"save", "savez", "savez_compressed", "savetxt"})

#: First-argument names that denote an already-open handle, not a path.
_HANDLE_NAMES = frozenset({"fh", "fileobj", "fp", "file", "stream", "handle", "buf"})

_WRITE_MODE_CHARS = set("wax+")


def _open_mode_writes(call: ast.Call) -> bool:
    mode: Optional[str] = None
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        if isinstance(call.args[1].value, str):
            mode = call.args[1].value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            if isinstance(kw.value.value, str):
                mode = kw.value.value
    if mode is None:
        return False  # default "r"
    return bool(set(mode) & _WRITE_MODE_CHARS)


def _lambda_params(tree: ast.Module) -> Set[str]:
    params: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            for arg in node.args.args:
                params.add(arg.arg)
    return params


def _is_handle_expr(node: ast.AST, lambda_params: Set[str]) -> bool:
    return isinstance(node, ast.Name) and (
        node.id in _HANDLE_NAMES or node.id in lambda_params
    )


def _function_replaces(stack: Sequence[ast.AST]) -> bool:
    """True when the innermost enclosing function calls ``os.replace``
    (or routes through ``atomic_write*``) — the manual form of the idiom."""
    for scope in reversed(stack):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                name = dotted(node.func)
                leaf = name.split(".")[-1]
                if leaf == "replace" and name.startswith("os."):
                    return True
                if leaf.startswith("atomic_write"):
                    return True
        return False
    return False


class AtomicWriteChecker(Checker):
    """Durable files land via temp + ``os.replace``, never a direct write."""

    name = "atomic-write"
    rules = ("atomic-write",)
    description = (
        "modules with durable on-disk artifacts must write through "
        "repro.utils.fileio.atomic_write (temp file + os.replace), not "
        "directly to the destination path"
    )

    def __init__(
        self,
        durable_modules: Sequence[str] = DURABLE_MODULES,
        exempt_modules: Sequence[str] = EXEMPT_MODULES,
    ):
        self.durable_modules = tuple(durable_modules)
        self.exempt_modules = tuple(exempt_modules)

    def applies_to(self, module: str) -> bool:
        if any(fnmatch.fnmatchcase(module, pat) for pat in self.exempt_modules):
            return False
        return any(fnmatch.fnmatchcase(module, pat) for pat in self.durable_modules)

    def check_module(self, mod: ParsedModule) -> Iterable[Finding]:
        if not self.applies_to(mod.module):
            return
        lambda_params = _lambda_params(mod.tree)
        stack: List[ast.AST] = []
        findings: List[Finding] = []

        def flag(call: ast.Call, what: str) -> None:
            if _function_replaces(stack):
                return
            findings.append(Finding(
                rule="atomic-write",
                path=mod.rel,
                line=call.lineno,
                message=(
                    f"{what} writes the destination file in place; a crash "
                    f"mid-write leaves a partial file for readers — route it "
                    f"through repro.utils.fileio.atomic_write"
                ),
                symbol=enclosing_symbol(stack),
            ))

        def check_call(call: ast.Call) -> None:
            func = call.func
            if isinstance(func, ast.Name) and func.id == "open":
                if _open_mode_writes(call) and call.args and not _is_handle_expr(
                    call.args[0], lambda_params
                ):
                    flag(call, "open(path, mode=...w...)")
                return
            if not isinstance(func, ast.Attribute):
                return
            if func.attr in _NUMPY_PATH_WRITERS:
                if call.args and not _is_handle_expr(call.args[0], lambda_params):
                    flag(call, f"{dotted(func) or func.attr}(path, ...)")
            elif func.attr in ("write_text", "write_bytes"):
                flag(call, f".{func.attr}()")
            elif func.attr == "tofile":
                if call.args and not _is_handle_expr(call.args[0], lambda_params):
                    flag(call, ".tofile(path)")

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append(node)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                stack.pop()
                return
            if isinstance(node, ast.Call):
                check_call(node)
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(mod.tree)
        yield from findings
