#!/usr/bin/env python3
"""Docs gate for CI.

Five checks, all cheap to keep honest:

1. **Docstring audit** — every public module under ``src/repro`` (any
   ``.py`` whose name does not start with an underscore, including
   package ``__init__``\\s) must open with a module docstring.
2. **Executable snippets** — every fenced ```python`` block in
   ``README.md`` and ``docs/*.md`` is executed with ``PYTHONPATH=src``
   in a scratch directory.  Documentation that cannot run is
   documentation that has drifted; mark genuinely non-runnable listings
   as ```text`` (or leave the fence untagged).
3. **CLI invocations** — every ``python -m repro.cli ...`` command line
   in those files, fenced or inline (an inline span may wrap across
   lines, a fenced line may continue with ``\\``), is parsed, not run,
   with ``repro.cli.build_parser()``, up to its first shell operator
   (``|``, ``>``, ``;``, ``&&`` ...), so a renamed subcommand or flag
   fails here before a reader trips on it.
4. **Dotted names** — every inline code span in those files that names
   ``repro.<dotted.path>`` (alone, called, or as a ``.*`` wildcard) must
   import and resolve attribute by attribute, so a deleted module or a
   renamed class fails here instead of in a reader's shell.
5. **Class members** — every inline code span ``Class.member`` (alone
   or called) whose ``Class`` is the name of exactly one top-level class
   in ``src/repro`` must name a member of that class: an attribute
   ``getattr`` finds on it, a field its body annotates, or a
   ``self.<member>`` its ``__init__`` assigns.  A deleted method fails here while its prose lives on.

Exit status is non-zero with a per-failure report, so the CI step's log
says exactly which module or snippet broke.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
SNIPPET_TIMEOUT_S = 240

FENCE_RE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
ANY_FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
INLINE_RE = re.compile(r"`([^`]+)`")
CLI_RE = re.compile(r"python -m repro\.cli\s+(\S.*)")
CONTINUATION_RE = re.compile(r"\\[ \t]*\n")
SHELL_OPERATOR_CHARS = set("();<>|&")
DOTTED_RE = re.compile(r"(repro(?:\.[A-Za-z_]\w*)+)(?:\(.*\)|\.\*)?")
MEMBER_RE = re.compile(r"([A-Z]\w*)\.([A-Za-z_]\w*)(?:\(.*\))?")


def public_modules() -> "list[str]":
    out = []
    for root, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
        for name in sorted(files):
            if name.endswith(".py") and (name == "__init__.py" or not name.startswith("_")):
                out.append(os.path.join(root, name))
    return out


def check_docstrings() -> "list[str]":
    failures = []
    for path in public_modules():
        rel = os.path.relpath(path, REPO)
        try:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=rel)
        except SyntaxError as exc:
            failures.append(f"{rel}: does not parse ({exc})")
            continue
        if not ast.get_docstring(tree):
            failures.append(f"{rel}: missing module docstring")
    return failures


def doc_files() -> "list[str]":
    out = [os.path.join(REPO, "README.md")]
    docs = os.path.join(REPO, "docs")
    if os.path.isdir(docs):
        out.extend(
            os.path.join(docs, name)
            for name in sorted(os.listdir(docs))
            if name.endswith(".md")
        )
    return [p for p in out if os.path.exists(p)]


def check_snippets() -> "list[str]":
    failures = []
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for path in doc_files():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for i, match in enumerate(FENCE_RE.finditer(text), start=1):
            code = match.group(1)
            line = text[: match.start()].count("\n") + 2
            label = f"{rel} snippet {i} (line {line})"
            with tempfile.TemporaryDirectory() as scratch:
                try:
                    proc = subprocess.run(
                        [sys.executable, "-c", code],
                        cwd=scratch,
                        env=env,
                        capture_output=True,
                        text=True,
                        timeout=SNIPPET_TIMEOUT_S,
                    )
                except subprocess.TimeoutExpired:
                    failures.append(f"{label}: timed out after {SNIPPET_TIMEOUT_S}s")
                    continue
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout).strip().splitlines()[-12:]
                failures.append(f"{label}: exited {proc.returncode}\n    " + "\n    ".join(tail))
            else:
                print(f"ok: {label}")
    return failures


def inline_spans(text: str) -> "list[tuple[int, str]]":
    """``(line, content)`` of every inline code span in *text*'s prose;
    fenced blocks are blanked first, so their backticks never pair with
    prose."""
    prose = ANY_FENCE_RE.sub(lambda m: " " * len(m.group(0)), text)
    return [
        (text.count("\n", 0, span.start(1)) + 1, span.group(1))
        for span in INLINE_RE.finditer(prose)
    ]


def cli_invocations(text: str) -> "list[tuple[int, str]]":
    """``(line, arguments)`` of every ``python -m repro.cli`` command
    line with arguments in *text*: one per (``\\``-continued) line of a
    fenced block, one per inline code span."""
    found = []

    def add(line: int, snippet: str) -> None:
        match = CLI_RE.search(" ".join(snippet.split()))
        if match:
            found.append((line, match.group(1)))

    for fence in ANY_FENCE_RE.finditer(text):
        offset = start = fence.start(1)
        command = ""
        for line in fence.group(1).splitlines(keepends=True):
            if not command:
                start = offset
            command += line
            offset += len(line)
            if not CONTINUATION_RE.search(line):
                add(text.count("\n", 0, start) + 1, CONTINUATION_RE.sub(" ", command))
                command = ""
    for line, span in inline_spans(text):
        add(line, span)
    return sorted(found)


def split_command(arguments: str) -> "list[str]":
    """The argv of a documented command line, up to its first shell
    operator; ValueError when its quoting does not balance."""
    lexer = shlex.shlex(arguments, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = []
    for token in lexer:
        if set(token) <= SHELL_OPERATOR_CHARS:
            break
        argv.append(token)
    return argv


def strict(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """*parser* and its subcommands with prefix abbreviations off, so a
    documented flag that a rename only lengthened still fails."""
    parser.allow_abbrev = False
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                strict(subparser)
    return parser


def check_cli_invocations() -> "list[str]":
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.cli import build_parser

    parser = strict(build_parser())
    failures = []
    for path in doc_files():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for line, arguments in cli_invocations(text):
            label = f"{rel} line {line}: python -m repro.cli {arguments}"
            try:
                argv = split_command(arguments)
            except ValueError as exc:
                failures.append(f"{label}: cannot be split ({exc})")
                continue
            if not argv:
                failures.append(f"{label}: names no command before its shell operator")
                continue
            if argv[0] == "lint":  # forwarded verbatim, as repro.cli.main does
                continue
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    parser.parse_args(argv)
            except SystemExit:
                error = stderr.getvalue().strip().splitlines()[-1:]
                failures.append(f"{label}: does not parse ({' '.join(error)})")
                continue
            print(f"ok: {label}")
    return failures


def resolve(dotted: str) -> None:
    """Import the longest module prefix of *dotted* and look the rest up
    attribute by attribute; ImportError/AttributeError when it fails."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return
    raise ImportError(f"no prefix of {dotted} imports")


def check_dotted_names() -> "list[str]":
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    failures = []
    for path in doc_files():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for line, span in inline_spans(text):
            match = DOTTED_RE.fullmatch(span)
            if not match:
                continue
            try:
                resolve(match.group(1))
            except (ImportError, AttributeError) as exc:
                failures.append(f"{rel} line {line}: `{span}` does not resolve ({exc})")
    return failures


def top_level_classes() -> "dict[str, list[tuple[str, ast.ClassDef]]]":
    """``{name: [(module, class node), ...]}`` over every top-level class
    in ``src/repro``."""
    classes: "dict[str, list[tuple[str, ast.ClassDef]]]" = {}
    for path in public_modules():
        rel = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
        module = rel[: -len(".__init__")] if rel.endswith(".__init__") else rel
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append((module, node))
    return classes


def declared_attributes(cls: ast.ClassDef) -> "set[str]":
    """The fields *cls*'s body annotates and the ``self.<name>``
    attributes its ``__init__`` assigns."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__" and node.args.args:
            this = node.args.args[0].arg
            names.update(
                sub.attr for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == this
            )
    return names


def check_members() -> "list[str]":
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    classes = top_level_classes()
    failures = []
    for path in doc_files():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for line, span in inline_spans(text):
            match = MEMBER_RE.fullmatch(span)
            if not match or len(classes.get(match.group(1), ())) != 1:
                continue
            name, member = match.groups()
            module, node = classes[name][0]
            cls = getattr(importlib.import_module(module), name)
            if not hasattr(cls, member) and member not in declared_attributes(node):
                failures.append(f"{rel} line {line}: `{span}`: {module}.{name} has no member {member!r}")
    return failures


def main() -> int:
    failures = check_docstrings()
    n_modules = len(public_modules())
    if not failures:
        print(f"ok: {n_modules} public modules all carry module docstrings")
    failures += check_cli_invocations()
    failures += check_dotted_names()
    failures += check_members()
    failures += check_snippets()
    if failures:
        print(f"\n{len(failures)} docs check failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("docs checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
