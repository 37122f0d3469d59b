#!/usr/bin/env python3
"""List the statements of ``src/unruh_lab/`` that no tier-1 test runs; they must be the listed ones.

Usage: python ci/unrun.py

The tier-1 suite runs once, in this process, under ``sys.settrace``, with
this checkout's ``src/`` first on ``sys.path``.  The property tests draw
from the fixed seed 0 and pytest's cache is off, so every run lists the
same statements.  Line events are recorded for code in ``src/unruh_lab/``
only.  A statement is run when a line event falls on one of its own
lines: every line of a simple statement, or a compound statement's header,
from its first decorator to the line before its body.  Docstrings, and
statements that compile to no code, are not counted.  Code that the tests
start in a subprocess is not seen.

Each unrun statement is printed as ``path:line: source``.  Exits 1 when
pytest does not exit 0, or when the unrun statements differ from
:data:`UNRUN`: a listed statement that runs, or an unrun one that is not
listed.  An entry of ``UNRUN`` is keyed by its file, the qualified name of
the function or class it sits in (empty at module level) and its first
source line, so that edits elsewhere in the file leave it alone.  Stdlib
only, apart from the pytest it runs.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unruh_lab"

# (file, scope, first source line) -> why no tier-1 test runs it in-process
UNRUN = {
    ("src/unruh_lab/__main__.py", "", "from .cli import entry"): (
        "`python -m unruh_lab` runs only in the CLI tests' subprocesses"
    ),
    ("src/unruh_lab/__main__.py", "", "entry()"): (
        "`python -m unruh_lab` runs only in the CLI tests' subprocesses"
    ),
    ("src/unruh_lab/cli.py", "entry", "sys.exit(main())"): (
        "the console script's entry point: the tests call cli.main in-process "
        "and start the console script only in subprocesses"
    ),
}


def _first_line(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _executable_lines(source: str, path: Path) -> set[int]:
    """The lines that carry bytecode in any code object compiled from ``source``."""
    lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def statements(path: Path) -> list[tuple[str, int, str, range]]:
    """(scope, line, first source line, own lines) of each counted statement of ``path``."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    tree = ast.parse(source)
    executable = _executable_lines(source, path)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child, scope)
                continue
            start = _first_line(child)
            body = getattr(child, "body", None)
            end = max(start, _first_line(body[0]) - 1) if body else child.end_lineno
            own = range(start, end + 1)
            if id(child) not in docstrings and executable.intersection(own):
                found.append((scope, child.lineno, text[child.lineno - 1].strip(), own))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(tree, "")
    return found


def trace_tier_1() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status, and the lines run per file of the package."""
    executed: dict[str, set[int]] = defaultdict(set)
    prefix = f"{PACKAGE}{os.sep}"

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = executed[frame.f_code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
    return int(status), executed


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, executed = trace_tier_1()
    if status != 0:
        print(f"tier-1 under the tracer: pytest exit {status}")
        return 1
    unrun = Counter()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        ran = executed.get(str(path), set())
        for scope, line, source, own in statements(path):
            total += 1
            if ran.isdisjoint(own):
                print(f"{name}:{line}: {source}")
                unrun[name, scope, source] += 1
    print(f"{total - sum(unrun.values())} of {total} statements run; {sum(unrun.values())} not")
    problems = [f"not listed in UNRUN: {key}" for key in unrun if key not in UNRUN]
    problems += [f"listed in UNRUN but run: {key}" for key in UNRUN if key not in unrun]
    problems += [f"{count} unrun statements share the key {key}" for key, count in unrun.items()
                 if count > 1]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
