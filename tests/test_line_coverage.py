"""``tools/line_coverage.py``: which lines count as statements, how missed
ones are grouped, and what a traced pytest run reports."""
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "line_coverage.py"


def _tool():
    spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_skip_docstrings_and_continuation_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(textwrap.dedent('''\
        """module docstring"""
        import math


        def f(x):
            """function docstring"""
            if x < 0:
                raise ValueError(
                    "negative"
                )
            return math.sqrt(x)
        '''))
    assert _tool().statements(path) == {2, 5, 7, 8, 11}


def test_ranges_break_at_a_reached_statement():
    assert _tool().ranges([3, 4, 7, 9, 12], {5, 10}) == [(3, 4), (7, 9), (12, 12)]


def test_run_lists_what_the_selection_missed():
    cli = (REPO / "src" / "concavebp" / "cli.py").read_text().splitlines()
    missed = cli.index('            raise ParseError("afptas needs --eps")') + 1
    reached = cli.index("    rows = list(_compare_rows(args, eps))") + 1
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider",
         "tests/test_cli.py::TestCompare::test_rows_follow_input_order"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"\d+ of \d+ statements unreached", lines[-1])
    (row,) = [line for line in lines if line.startswith("src/concavebp/cli.py: ")]
    spans = []
    for cell in row.split(": ", 1)[1].split(", "):
        first, _, last = cell.partition("-")
        spans.append((int(first), int(last or first)))
    assert any(a <= missed <= b for a, b in spans)
    assert not any(a <= reached <= b for a, b in spans)
