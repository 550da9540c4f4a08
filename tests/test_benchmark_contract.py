"""The names the benchmark in ``perfbench/`` relies on must keep resolving.

The benchmark imports every module in ``run.py``'s ``MODULES`` and its tracer
rebinds every ``(module, attribute)`` in ``tracer.py``'s ``_TARGETS``, so a
rename or deletion in the package breaks it.  Both lists are read with
``ast`` so that no benchmark code runs here.
"""
import ast
import importlib
import inspect
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import concavebp
from concavebp import lp
from concavebp.afptas import Provenance
from concavebp.simplex import LpResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module_constant(filename: str, name: str):
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in perfbench/{filename}")


def test_run_modules_import():
    modules = _module_constant("run.py", "MODULES")
    assert modules
    for name in modules:
        importlib.import_module(f"concavebp.{name}")


def test_run_modules_leave_openssl_unloaded():
    # hashlib loads OpenSSL's libcrypto, about 3.6 MB resident, and only
    # instance_digest needs it: importing what the benchmark imports must
    # not load it, and computing a digest must
    modules = _module_constant("run.py", "MODULES")
    script = f"""
import importlib, json, sys
sys.path.insert(0, {str(Path(concavebp.__file__).resolve().parents[1])!r})
import concavebp
for name in {list(modules)!r}:
    importlib.import_module("concavebp." + name)
loaded = lambda: [m for m in ("hashlib", "_hashlib") if m in sys.modules]
before = loaded()
concavebp.serialize.instance_digest(concavebp.Instance.from_values(["1/2"]))
print(json.dumps([before, loaded()]))
"""
    # -I: no PYTHONPATH, user site or startup file loads anything first;
    # -B: it ignores PYTHONDONTWRITEBYTECODE, so say it on the command line
    run = subprocess.run([sys.executable, "-B", "-I", "-c", script],
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == [[], ["hashlib", "_hashlib"]]


def test_tracer_targets_resolve():
    targets = _module_constant("tracer.py", "_TARGETS")
    assert targets
    for module, attr, _span in targets:
        owner = importlib.import_module(f"concavebp.{module}")
        assert callable(owner.__dict__.get(attr)), f"concavebp.{module}.{attr}"


def test_traced_signatures():
    assert list(inspect.signature(lp.LpModel.arrays).parameters) == ["self", "window_filter"]
    assert inspect.signature(lp.column_generation).parameters["pricer"].default is lp.price_all
    assert list(inspect.signature(lp.solve_lp).parameters)[3] == "basis"


def test_traced_result_fields():
    # the tracer's hooks read these fields off the traced calls' results
    def names(cls):
        return {f.name for f in fields(cls)}

    assert "iterations" in names(LpResult)
    assert "columns_added" in names(lp.ColumnGenerationInfo)
    assert {
        "lp_iterations", "n_windows", "n_main_windows", "fractional_x", "fractional_y",
    } <= names(Provenance)
