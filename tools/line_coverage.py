#!/usr/bin/env python3
"""List the statements of ``src/concavebp`` that a pytest selection never reaches.

    python3 tools/line_coverage.py                      # the whole suite
    python3 tools/line_coverage.py tests/test_lp.py -k extract

``coverage`` is not a dependency, so this is a ``sys.settrace`` statement
tracer.  It runs pytest in this process with the arguments given, records
every line executed in a module under ``src/concavebp``, and prints one line
per module, ``path: first-last, ...``, the unreached statements as ranges
(a range holds no reached statement), then the total.  A statement is a
line where an ``ast`` statement starts and its compiled code has an
instruction, so docstrings and lines of a statement after its first do not
count.  Code run in a child process is not seen.  Tracing makes the suite
several times slower.  The exit status is pytest's.
"""
from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "concavebp"


def statements(path: Path) -> set[int]:
    """The first lines of the statements of ``path`` that compile to code."""
    source = path.read_text()
    tree = ast.parse(source)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                starts.discard(node.body[0].lineno)
    lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return starts & lines


def ranges(missed: list[int], reached: set[int]) -> list[tuple[int, int]]:
    """Sorted ``missed`` lines as (first, last) runs that no line of
    ``reached`` falls inside."""
    runs: list[tuple[int, int]] = []
    for line in missed:
        if runs and not any(runs[-1][1] < r < line for r in reached):
            runs[-1] = (runs[-1][0], line)
        else:
            runs.append((line, line))
    return runs


def traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines executed, per file under ``PACKAGE``."""
    import pytest

    hits: dict[str, set[int]] = defaultdict(set)
    by_name: dict[str, set[int] | None] = {}  # code file name -> its hits, None if not ours
    prefix = str(PACKAGE) + "/"

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            path = str(Path(name).resolve())
            by_name[name] = hits[path] if path.startswith(prefix) else None
        seen = by_name[name]
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    previous = sys.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = traced(argv)
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        wanted = statements(path)
        reached = wanted & hits.get(str(path), set())
        missed = sorted(wanted - reached)
        total += len(wanted)
        unreached += len(missed)
        if missed:
            cells = ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in ranges(missed, reached))
            print(f"{path.relative_to(REPO)}: {cells}")
    print(f"{unreached} of {total} statements unreached")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
