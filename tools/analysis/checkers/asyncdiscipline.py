"""Async-discipline lint for the runtime spine, the cluster tier, the
anim render walks and the point-serving miss path.

The async spine's whole contract is that the event loop never blocks:
one stalled coroutine freezes every connection pump, every stream
iterator and every render walk in the process.  The blocking world is
still reachable from async code — that is the point of the executor
bridge — but only through ``await loop.run_in_executor(...)``; calling
a blocking primitive *directly* inside an ``async def`` compiles,
passes small tests (the stall needs concurrency to bite) and then
wedges production under load.

Flagged inside ``async def`` bodies of modules matching
:data:`ASYNC_MODULES`:

* ``time.sleep(...)`` — use ``await asyncio.sleep(...)``, or offload an
  injected sleep to an executor;
* blocking socket construction — ``socket.socket(...)`` /
  ``socket.create_connection(...)``; async code speaks asyncio streams;
* a call of a blocking synchronisation/socket primitive that is not
  awaited: ``.wait()``, ``.accept()``, ``.recv()``, ``.sendall()``,
  ``.connect()``.  Awaited calls (``await flight.wait()``) are the
  async twins and pass.

Nested *sync* ``def``\\ s and ``lambda``\\ s inside an ``async def`` are
**not** scanned: they are off-loop closures — executor thunks, loop
callbacks — where blocking is exactly what they exist for.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterable, List

from tools.analysis.core import Checker, Finding, ParsedModule, enclosing_symbol

#: Modules whose ``async def``\ s run on the runtime loop.
ASYNC_MODULES = (
    "repro.runtime",
    "repro.runtime.*",
    "repro.cluster",
    "repro.cluster.*",
    "repro.anim",
    "repro.anim.*",
    "repro.service",
    "repro.service.*",
)

#: Method names whose bare (non-awaited) call inside async code is a
#: blocking primitive: threading.Event.wait, socket.accept/recv/sendall/
#: connect, concurrent future .wait.  Their awaited namesakes are the
#: legitimate async twins.
_BLOCKING_ATTRS = frozenset({"wait", "accept", "recv", "sendall", "connect"})

_SOCKET_CONSTRUCTORS = frozenset({"socket", "create_connection"})


class AsyncDisciplineChecker(Checker):
    """No blocking primitives on the event loop."""

    name = "async-discipline"
    rules = ("async-blocking",)
    description = (
        "async defs on the runtime spine may not call blocking "
        "primitives (time.sleep, blocking sockets, non-awaited waits)"
    )

    def applies_to(self, module: str) -> bool:
        return any(fnmatch.fnmatchcase(module, pat) for pat in ASYNC_MODULES)

    def check_module(self, mod: ParsedModule) -> Iterable[Finding]:
        if not self.applies_to(mod.module):
            return
        stack: List[ast.AST] = []
        findings: List[Finding] = []

        def finding(node: ast.AST, message: str) -> Finding:
            return Finding(
                rule="async-blocking",
                path=mod.rel,
                line=getattr(node, "lineno", 1),
                message=message,
                symbol=enclosing_symbol(stack),
            )

        def check_call(node: ast.Call, awaited: bool) -> None:
            func = node.func
            if isinstance(func, ast.Attribute):
                base = func.value
                if isinstance(base, ast.Name):
                    if base.id == "time" and func.attr == "sleep":
                        findings.append(finding(
                            node, "blocking time.sleep() on the event loop; "
                                  "await asyncio.sleep(...) or offload via "
                                  "run_in_executor"))
                        return
                    if base.id == "socket" and func.attr in _SOCKET_CONSTRUCTORS:
                        findings.append(finding(
                            node, f"blocking socket.{func.attr}() in async code; "
                                  f"use asyncio streams "
                                  f"(open_connection/start_server)"))
                        return
                if not awaited and func.attr in _BLOCKING_ATTRS:
                    findings.append(finding(
                        node, f"non-awaited .{func.attr}() in an async def "
                              f"blocks the event loop; await the async twin "
                              f"or offload via run_in_executor"))
            elif isinstance(func, ast.Name):
                if func.id == "sleep":
                    findings.append(finding(
                        node, "blocking sleep() on the event loop; "
                              "await asyncio.sleep(...) instead"))
                elif func.id == "create_connection":
                    findings.append(finding(
                        node, "blocking create_connection() in async code; "
                              "use asyncio.open_connection"))

        def visit_async_body(node: ast.AST, in_await: bool = False) -> None:
            # Off-loop closures (sync defs, lambdas) may block; the loop
            # never runs them.  Nested async defs stay on the loop.
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                return
            if isinstance(node, ast.AsyncFunctionDef):
                stack.append(node)
                for child in ast.iter_child_nodes(node):
                    visit_async_body(child)
                stack.pop()
                return
            if isinstance(node, ast.Await):
                # Anything under the await — including a call fed to a
                # combinator like asyncio.wait_for(flight.wait(), t) —
                # counts as awaited for the non-awaited-wait rule.
                visit_async_body(node.value, in_await=True)
                return
            if isinstance(node, ast.Call):
                check_call(node, awaited=in_await)
                for child in ast.iter_child_nodes(node):
                    if child is not node.func:
                        visit_async_body(child, in_await=in_await)
                return
            for child in ast.iter_child_nodes(node):
                visit_async_body(child)

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.AsyncFunctionDef):
                visit_async_body(node)
                return
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                stack.append(node)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                stack.pop()
                return
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(mod.tree)
        yield from findings
