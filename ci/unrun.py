#!/usr/bin/env python3
"""List the statements of ``src/unruh_lab/`` that no tier-1 test runs; there must be none.

Usage: python ci/unrun.py

The tier-1 suite runs once, in this process, under ``sys.settrace``, with
this checkout's ``src/`` first on ``sys.path``.  The property tests draw
from the fixed seed 0 and pytest's cache is off, so every run gives the
same result.  Line events are recorded for code in ``src/unruh_lab/``
only.  A statement is run when a line event falls on one of its own
lines: every line of a simple statement, or a compound statement's header,
from its first decorator to the line before its body.  Docstrings, and
statements that compile to no code, are not counted.  Code that the tests
start in a subprocess is not seen.

Each unrun statement is printed as ``path:line: source``.  Exits 1 when
pytest does not exit 0 or when any statement is unrun.  Stdlib only, apart
from the pytest it runs.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unruh_lab"


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


def statements(path: Path) -> list[tuple[int, range]]:
    """(line, own lines) of each counted statement of ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    executable = _executable_lines(source, path)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        start = _first_line(node)
        body = getattr(node, "body", None)
        end = max(start, _first_line(body[0]) - 1) if body else node.end_lineno
        own = range(start, end + 1)
        if executable.intersection(own):
            found.append((node.lineno, own))
    return sorted(found, key=lambda statement: statement[0])


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
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        ran = executed.get(str(path), set())
        for line, own in statements(path):
            total += 1
            if ran.isdisjoint(own):
                unrun += 1
                print(f"{path.relative_to(ROOT).as_posix()}:{line}: {text[line - 1].strip()}")
    print(f"{total - unrun} of {total} statements run; {unrun} not")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
