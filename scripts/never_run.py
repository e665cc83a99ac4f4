#!/usr/bin/env python3
"""List the statements of quantir's functions that a test run never runs.

    PYTHONPATH=src python3 scripts/never_run.py -q
    PYTHONPATH=src python3 scripts/never_run.py -q tests/test_originir.py

Runs pytest in this process, with this script's arguments, under
``sys.settrace``, tracing only frames whose code lies under ``src/quantir``
(imported from this checkout).  Then it prints, one per line and as
``file:line: text``, each statement inside a function body of which no line
ran.  A compound statement counts by its head (``if``, ``for``, ``try`` ...
up to its first body line), a decorated definition from its first decorator.
Docstrings and other constant expressions compile to no code and are left
out, as are ``global`` and ``nonlocal``; so are module and class level lines.
Set ``PYTHONPATH`` as above, since one test starts ``python -m quantir.cli``
in a subprocess; the trace does not follow it there.

The trace makes a run several times slower (the full suite took 458 s
against 125 s untraced, on a shared 2-core VM), so timing bounds such as
c01's fail under it: keep it out of the tier-1 run.  The exit code is
pytest's.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quantir"


def statements(body: list) -> list:
    """Each statement in ``body`` and in the blocks nested in it, but not in
    nested definitions, as ``(first line, last line of its head)``."""
    found = []
    for node in body:
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        inner = getattr(node, "body", None)
        head_end = max(node.lineno, inner[0].lineno - 1) if inner else node.end_lineno
        found.append((first, head_end))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in ("body", "orelse", "finalbody"):
            found += statements(getattr(node, block, []))
        for part in getattr(node, "handlers", []) + getattr(node, "cases", []):
            found += statements(part.body)
    return found


def never_run(path: Path, ran: set) -> list[tuple[int, str]]:
    """``(line, text)`` of each statement in a function body of ``path`` with
    no line in ``ran``."""
    source = path.read_text()
    lines = source.split("\n")
    out = []
    for fn in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for first, last in statements(fn.body):
                if ran.isdisjoint(range(first, last + 1)):
                    out.append((first, lines[first - 1].strip()))
    return sorted(out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        ran = hits.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line

        return line

    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, text in never_run(path, hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{lineno}: {text}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
