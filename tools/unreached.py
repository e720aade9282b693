"""List the statements of ``src/ctxcheck`` that the tier-1 tests never run.

Usage: python tools/unreached.py

Runs the tier-1 suite in this process, with ``--hypothesis-seed=0`` so
that the generated examples are the same on every run, while a
``sys.settrace`` hook records each line executed in ``src/ctxcheck``.
A statement is executable when the compiler gave any of its own lines
(those not inside a nested statement) an instruction; docstrings do not
count.  Prints ``path:line: source`` for every executable statement
none of whose own lines ran, and exits 1 if there is one or if the
suite fails, 0 otherwise.  The suite's own output is printed only when
it fails.  Tracing makes the suite about twice as slow, so hypothesis
deadlines are switched off for the run.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ctxcheck")


def _code_lines(code) -> set[int]:
    """Lines that some instruction of ``code`` or a nested code object has."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.Module):
    """Each statement but docstrings, with the lines that are its own."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(
                    inner, (ast.stmt, ast.excepthandler)):
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        yield node, own


def unreached(executed: dict[str, set[int]]) -> list[tuple[str, int]]:
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, path)
        has_code = _code_lines(compile(source, path, "exec"))
        ran = executed.get(path, set())
        seen = set()
        for node, own in _statements(tree):
            if node.lineno not in seen and own & has_code and not own & ran:
                seen.add(node.lineno)
                missed.append((path, node.lineno))
    return sorted(missed)


def main() -> int:
    import pytest
    from hypothesis import settings

    settings.register_profile("unreached", deadline=None)
    settings.load_profile("unreached")
    executed: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        lines = executed.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    output = io.StringIO()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(output):
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  "--hypothesis-seed=0",
                                  os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(output.getvalue(), end="")
    missed = unreached(executed)
    for path, line in missed:
        with open(path, encoding="utf-8") as handle:
            text = handle.read().splitlines()[line - 1].strip()
        print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    raise SystemExit(main())
