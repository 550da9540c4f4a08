"""Checks on the package source itself."""
import ast
from pathlib import Path

import concavebp

SRC = Path(concavebp.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
