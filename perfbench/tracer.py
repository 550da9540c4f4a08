"""Spans around the calls into each concavebp module, recorded from outside.

The tracer rebinds a public function under the name its caller looks up, so
a call made inside the package is timed without editing the package.  Each
span carries a name, start, end, parent span id and operation id; spans are
kept in memory and written as JSON lines when the benchmark ends.

Names are ``<module>.<function>``, with the module where the function is
defined, whichever module's namespace the call went through.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

# (module holding the name the caller looks up, attribute, span name)
_TARGETS = (
    # the scheme's stages, looked up in concavebp.afptas
    ("afptas", "run_afptas", "afptas.run_afptas"),
    ("afptas", "linear_grouping", "structures.linear_grouping"),
    ("afptas", "build_staircase", "structures.build_staircase"),
    ("afptas", "split_small", "structures.split_small"),
    ("afptas", "build_windows", "structures.build_windows"),
    ("afptas", "enumerate_configurations", "structures.enumerate_configurations"),
    ("afptas", "fnfi_with_split_repair", "fractional.fnfi_with_split_repair"),
    ("afptas", "column_generation", "lp.column_generation"),
    ("afptas", "project_to_main_windows", "lp.project_to_main_windows"),
    ("afptas", "extract_basic", "lp.extract_basic"),
    ("afptas", "round_solution", "afptas.round_solution"),
    ("afptas", "verify_packing", "core.verify_packing"),
    ("afptas", "eval_cost", "core.eval_cost"),
    # the master program and its solver
    ("lp", "solve_master", "lp.solve_master"),
    ("lp", "solve_lp", "simplex.solve_lp"),
    ("pricing", "kcc_fptas", "pricing.kcc_fptas"),
    # heuristics, as the benchmark and match_half / fnfi_with_split_repair call them
    ("heuristics", "next_fit", "heuristics.next_fit"),
    ("heuristics", "first_fit", "heuristics.first_fit"),
    ("heuristics", "best_fit", "heuristics.best_fit"),
    ("heuristics", "match_half", "heuristics.match_half"),
    ("heuristics", "overflowed_packing", "heuristics.overflowed_packing"),
    ("fractional", "fnfi", "fractional.fnfi"),
    ("core", "verify_packing", "core.verify_packing"),
    ("core", "eval_cost", "core.eval_cost"),
    ("core", "eval_fractional_cost", "core.eval_fractional_cost"),
    # the solver names imported into the command line module
    ("cli", "main", "cli.main"),
    ("cli", "run_afptas", "afptas.run_afptas"),
    ("cli", "exact_opt", "exact.exact_opt"),
    ("cli", "fnfi", "fractional.fnfi"),
    ("cli", "next_fit", "heuristics.next_fit"),
    ("cli", "first_fit", "heuristics.first_fit"),
    ("cli", "best_fit", "heuristics.best_fit"),
    ("cli", "match_half", "heuristics.match_half"),
    ("cli", "lower_bound_fk", "heuristics.lower_bound_fk"),
    ("cli", "verify_packing", "core.verify_packing"),
    ("cli", "eval_cost", "core.eval_cost"),
    ("cli", "eval_fractional_cost", "core.eval_fractional_cost"),
    ("cli", "read_instance", "serialize.read_instance"),
    ("cli", "parse_cost_spec", "serialize.parse_cost_spec"),
)


class Tracer:
    """Records spans and counts while installed; restores every name on removal."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {
            name: getattr(self.pkg, name)
            for name in ("afptas", "lp", "pricing", "heuristics", "fractional", "core", "cli")
        }
        for mod, attr, name in _TARGETS:
            self._rebind(mods[mod], attr, self._wrap(name, getattr(mods[mod], attr)))
        lp = mods["lp"]
        self._rebind(lp.LpModel, "arrays", self._wrap("lp.arrays", lp.LpModel.arrays))
        # column_generation binds ``pricer=price_all`` when it is defined, so
        # rebinding lp.price_all would time nothing: hand it a traced pricer
        cg = mods["afptas"].column_generation  # already the traced wrapper
        default_pricer = inspect.signature(lp.column_generation).parameters["pricer"].default
        traced_pricer = self._wrap("pricing.price_all", default_pricer)

        @functools.wraps(cg)
        def column_generation(model, max_rounds=None):
            return cg(model, max_rounds, pricer=traced_pricer)

        self._rebind(mods["afptas"], "column_generation", column_generation)

    def remove(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _rebind(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id; filled in when the call ends
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- reading ------------------------------------------------------------
    def take(self) -> tuple[list[tuple], dict[str, float], dict[str, float]]:
        """Spans, counts and maxima recorded since the last take; resets them."""
        out = (self.spans[:], dict(self.counts), dict(self.maxima))
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        return out


# -- counts read at the layer boundaries -------------------------------------
def _count(key, value_of):
    def hook(tr, args, kwargs, result):
        tr.counts[key] += value_of(args, kwargs, result)

    return hook


def _solve_lp(tr, args, kwargs, result):
    tr.counts["simplex.pivots"] += result.iterations
    basis = kwargs.get("basis", args[3] if len(args) > 3 else None)
    tr.counts["simplex.warm_calls"] += basis is not None


def _arrays(tr, args, kwargs, result):
    window_filter = kwargs.get("window_filter", args[1] if len(args) > 1 else None)
    if window_filter is None:  # the restricted master, not the projected program
        A = result[1]
        tr.maxima["lp.master_rows"] = max(tr.maxima["lp.master_rows"], A.shape[0])
        tr.maxima["lp.master_cols"] = max(tr.maxima["lp.master_cols"], A.shape[1])
        nnz = int((A != 0).sum())
        tr.maxima["lp.master_nnz"] = max(tr.maxima["lp.master_nnz"], nnz)


def _run_afptas(tr, args, kwargs, result):
    prov = result.provenance
    tr.counts["afptas.cg_rounds"] += prov.lp_iterations
    tr.counts["afptas.windows"] += prov.n_windows
    tr.counts["afptas.main_windows"] += prov.n_main_windows
    tr.counts["afptas.fractional_components"] += prov.fractional_x + prov.fractional_y


_HOOKS = {
    "pricing.price_all": _count("pricing.columns_found", lambda a, k, r: len(r.violations)),
    "simplex.solve_lp": _solve_lp,
    "lp.arrays": _arrays,
    "lp.column_generation": _count("lp.columns_added", lambda a, k, r: r[1].columns_added),
    "afptas.run_afptas": _run_afptas,
    "structures.split_small": _count("afptas.kept_small", lambda a, k, r: len(r.kept)),
    "structures.enumerate_configurations": _count("structures.configs", lambda a, k, r: len(r)),
    "exact.exact_opt": _count("exact.states", lambda a, k, r: 2 ** a[0].n),
    "heuristics.first_fit": _count("heuristics.first_fit.bins", lambda a, k, r: r.num_bins),
    "heuristics.best_fit": _count("heuristics.best_fit.bins", lambda a, k, r: r.num_bins),
}


SPAN_NAMES = {name for _, _, name in _TARGETS} | {"lp.arrays", "pricing.price_all"}
COUNT_NAMES = {
    "pricing.columns_found", "simplex.pivots", "simplex.warm_calls",
    "lp.master_rows", "lp.master_cols", "lp.master_nnz", "lp.columns_added",
    "afptas.cg_rounds", "afptas.windows", "afptas.main_windows",
    "afptas.fractional_components", "afptas.kept_small", "structures.configs",
    "exact.states", "heuristics.first_fit.bins", "heuristics.best_fit.bins",
}


# -- span arithmetic ------------------------------------------------------
def self_times(spans: list[tuple]) -> tuple[list[float], list[str]]:
    """Self time of every span, and every nesting violation found.

    A span's self time is its duration minus the time its children cover.
    Calls are sequential in one thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    problems: list[str] = []
    covered = [0.0] * len(spans)
    for sid, name, start, end, parent, _op in spans:
        if end < start:
            problems.append(f"span {sid} {name} ends before it starts")
        if parent >= 0:
            _, pname, pstart, pend, _, _ = spans[parent]
            if start < pstart or end > pend:
                problems.append(f"span {sid} {name} lies outside its parent {pname}")
            covered[parent] += end - start
    selfs = []
    for sid, name, start, end, _parent, _op in spans:
        s = (end - start) - covered[sid]
        if s < -1e-9:
            problems.append(f"span {sid} {name} has negative self time {s:.3e}")
        selfs.append(s)
    return selfs, problems


def enumerations_per_run(spans: list[tuple]) -> list[int]:
    """Number of configuration enumerations below each run_afptas span."""
    root_of: dict[int, int] = {}
    runs: dict[int, int] = {}
    for sid, name, _s, _e, parent, _op in spans:
        root = sid if name == "afptas.run_afptas" else root_of.get(parent, -1)
        root_of[sid] = root
        if name == "afptas.run_afptas":
            runs[sid] = 0
        elif name == "structures.enumerate_configurations" and root >= 0:
            runs[root] += 1
    return list(runs.values())


def summarize(spans: list[tuple]) -> tuple[dict[str, dict[str, float]], list[str]]:
    """Per span name: inclusive seconds, self seconds and call count."""
    selfs, problems = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for (sid, name, start, end, _p, _op), own in zip(spans, selfs):
        row = out[name]
        row["s"] += end - start
        row["self_s"] += own
        row["calls"] += 1
    return dict(out), problems


def write_jsonl(path: Path, passes: list[list[tuple]]) -> None:
    """One JSON object per span; span and parent ids count within a pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for pass_no, spans in enumerate(passes):
            for sid, name, start, end, parent, op in spans:
                row = {"pass": pass_no, "id": sid, "name": name, "start": start,
                       "end": end, "parent": parent, "op": op}
                fh.write(json.dumps(row) + "\n")
