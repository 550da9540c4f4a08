"""Checks on the package source itself."""
import ast
import re
import sys
from pathlib import Path

import pytest

import concavebp

SRC = Path(concavebp.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def runtime_dependencies() -> set[str]:
    """Import names of the packages in ``[project] dependencies``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower().replace("-", "_") for d in deps}


def test_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_runtime_imports_are_declared():
    # a user installs the runtime dependencies only: the package may import
    # the standard library, itself and those, and nothing test-only (scipy)
    allowed = set(sys.stdlib_module_names) | {"concavebp"} | runtime_dependencies()
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                if name.split(".")[0] not in allowed:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
