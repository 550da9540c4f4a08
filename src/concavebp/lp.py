"""Restricted master program for the scheme, plus the column-generation loop,
the projection onto canonical windows, and basic-solution extraction.

Rows:  one covering row per rounded large size, one per kept small item, and
a (size, count) pair of rows per window.  Columns: one per generalized
configuration (cost: the configuration's level cost) and one zero-cost
assignment column per (small item, window) pair.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import CostFunction
from .errors import InfeasibleMasterError, NumericalFailureError, SolverLimitError
from .pricing import PricingOutcome, price_all
from .simplex import FEAS_TOL, Label, LpResult, solve_lp
from .structures import (
    Configuration,
    ExtendedConfiguration,
    GeneralizedConfiguration,
    Staircase,
    Window,
    main_window,
)

FRACTIONAL_TOL = 1e-6


@dataclass(frozen=True)
class SmallItem:
    index: int  # index in the original instance
    size: Fraction


@dataclass
class LpModel:
    """Master model state: fixed rows, growable column set."""

    sizes: tuple[Fraction, ...]  # distinct rounded large sizes, descending
    demands: tuple[int, ...]  # multiplicity per size
    smalls: tuple[SmallItem, ...]
    windows: tuple[Window, ...]
    staircase: Staircase
    p_max: int
    eps: Fraction
    s_min_small: Fraction
    t_max: int
    f: CostFunction

    columns: list[GeneralizedConfiguration] = field(default_factory=list)
    _column_keys: set = field(default_factory=set)
    y_pairs: list[tuple[int, Window]] = field(default_factory=list)
    main_windows: set[Window] = field(default_factory=set)

    def __post_init__(self):
        # zero-cost assignment columns for every usable (item, window) pair;
        # windows too small for any small item carry none by construction
        for si, item in enumerate(self.smalls):
            for w in self.windows:
                if w.kappa >= 1 and w.w >= self.s_min_small:
                    self.y_pairs.append((si, w))

    # -- column handling -------------------------------------------------
    def column_key(self, gc: GeneralizedConfiguration):
        return (gc.ext.config.counts, gc.ext.p, gc.window)

    def add_column(self, gc: GeneralizedConfiguration) -> bool:
        key = self.column_key(gc)
        if key in self._column_keys:
            return False
        self._column_keys.add(key)
        self.columns.append(gc)
        return True

    def seed_columns(self) -> None:
        """Singleton-configuration columns per size, plus one empty
        configuration per window when small items are present."""
        zero = (0,) * len(self.sizes)
        for j, v in enumerate(self.sizes):
            counts = tuple(1 if i == j else 0 for i in range(len(self.sizes)))
            ext = ExtendedConfiguration(Configuration(counts, v, 1), 1, self.staircase.ks[1])
            self.add_column(GeneralizedConfiguration(ext, self._main_window(ext)))
        if self.smalls:
            empty = Configuration(zero, Fraction(0), 0)
            for w in self.windows:
                if w.kappa >= 1 and w.a <= self.p_max and w.w >= self.s_min_small:
                    ext = ExtendedConfiguration(empty, w.a, self.staircase.ks[w.a])
                    self.add_column(GeneralizedConfiguration(ext, w))

    def _main_window(self, ext: ExtendedConfiguration) -> Window:
        w = main_window(ext, self.eps, self.t_max, self.staircase)
        self.main_windows.add(w)
        return w

    # -- matrix assembly --------------------------------------------------
    def arrays(self, window_filter: set[Window] | None = None):
        """Dense (c, A, b) plus the active column lists and windows.

        Rows, in order: one per size, one per small item, then a (size,
        count) pair per window.  With a window filter, rows of excluded
        windows and columns touching them are dropped (the temporary program
        after projection).
        """
        windows = [w for w in self.windows if window_filter is None or w in window_filter]
        nv, ns = len(self.sizes), len(self.smalls)
        w_row = {w: nv + ns + 2 * i for i, w in enumerate(windows)}
        x_cols = [
            gc
            for gc in self.columns
            if window_filter is None or gc.window in window_filter
        ]
        y_cols = [
            (si, w)
            for si, w in self.y_pairs
            if window_filter is None or w in window_filter
        ]
        # assignment columns first: their indices never move when the column
        # generation appends configuration columns, keeping bases warm-startable
        ncols = len(x_cols) + len(y_cols)
        A = np.zeros((nv + ns + 2 * len(windows), ncols), dtype=np.float64)
        c = np.zeros(ncols, dtype=np.float64)
        b = np.zeros(A.shape[0], dtype=np.float64)
        b[:nv] = self.demands
        b[nv : nv + ns] = 1.0
        for j, (si, w) in enumerate(y_cols):
            A[nv + si, j] += 1.0
            A[w_row[w], j] -= float(self.smalls[si].size)
            A[w_row[w] + 1, j] -= 1.0
        off = len(y_cols)
        for j, gc in enumerate(x_cols):
            c[off + j] = self.staircase.f_at[gc.ext.p]
            A[:nv, off + j] = gc.ext.config.counts
            A[w_row[gc.window], off + j] += float(gc.window.w)
            A[w_row[gc.window] + 1, off + j] += gc.window.kappa
        return c, A, b, x_cols, y_cols, windows


@dataclass
class LpSolution:
    objective: float
    x: dict[GeneralizedConfiguration, float]
    y: dict[tuple[int, Window], float]
    alpha: dict[Fraction, float]
    beta: dict[int, float]
    gamma: dict[Window, float]
    delta: dict[Window, float]

    def fractional_counts(self) -> tuple[int, int]:
        """(F_X, F_Y): fractional configuration columns, and small items whose
        assignment vector is fractional."""
        fx = sum(
            1
            for val in self.x.values()
            if val > FRACTIONAL_TOL and abs(val - round(val)) > FRACTIONAL_TOL
        )
        by_item: dict[int, list[float]] = {}
        for (si, _w), val in self.y.items():
            if val > FRACTIONAL_TOL:
                by_item.setdefault(si, []).append(val)
        # integral after normalization means exactly one component equal to 1
        fy = sum(
            1
            for vals in by_item.values()
            if not (len(vals) == 1 and abs(vals[0] - 1.0) <= FRACTIONAL_TOL)
        )
        return fx, fy


def _solution_from_result(
    model: LpModel, res: LpResult, x_cols, y_cols, windows
) -> LpSolution:
    y = {
        (si, w): float(res.x[j])
        for j, (si, w) in enumerate(y_cols)
        if res.x[j] > 0
    }
    off = len(y_cols)
    x = {gc: float(res.x[off + j]) for j, gc in enumerate(x_cols) if res.x[off + j] > 0}
    # duals of >= rows in a minimization are non-negative; clamp float dust
    duals = [max(0.0, float(d)) for d in res.duals]
    nv, ns = len(model.sizes), len(model.smalls)
    alpha = dict(zip(model.sizes, duals[:nv]))
    beta = {it.index: d for it, d in zip(model.smalls, duals[nv : nv + ns])}
    gamma = dict(zip(windows, duals[nv + ns :: 2]))
    delta = dict(zip(windows, duals[nv + ns + 1 :: 2]))
    return LpSolution(res.objective, x, y, alpha, beta, gamma, delta)


def solve_master(
    model: LpModel, warm_basis: list[Label] | None = None
) -> tuple[LpSolution, list[Label]]:
    """Solve the current restricted master exactly; returns duals as well."""
    c, A, b, x_cols, y_cols, windows = model.arrays()
    res = solve_lp(c, A, b, basis=warm_basis)
    if res.status == "infeasible":
        raise InfeasibleMasterError("restricted master infeasible; seeding is broken")
    if res.status != "optimal":
        raise NumericalFailureError(f"master solve ended with status {res.status}")
    resid = np.min(A @ res.x - b) if len(b) else 0.0
    if resid < -FEAS_TOL:
        raise NumericalFailureError(f"master residual {resid:.2e}")
    return _solution_from_result(model, res, x_cols, y_cols, windows), res.basis


@dataclass
class ColumnGenerationInfo:
    iterations: int
    columns_added: int
    final_max_ratio: float
    final_certified_ratio: float


def column_generation(
    model: LpModel,
    max_rounds: int | None = None,
    pricer=price_all,
) -> tuple[LpSolution, ColumnGenerationInfo]:
    """Alternate master solves and pricing until no column's dual violation
    ratio certifiably exceeds 1 + eps.

    The knapsack oracle runs at accuracy eps/2 and its slack is absorbed into
    the certified ratio, so termination implies the scaled duals are feasible
    and the master value is within (1 + eps) of the full program's optimum.
    """
    if not model.columns:
        model.seed_columns()
    if max_rounds is None:
        max_rounds = 10 * (
            len(model.sizes) + 2 * len(model.windows) + len(model.smalls)
        )
    kcc_eps = 0.5 / model.eps.denominator  # eps / 2
    one_plus = 1.0 + 1.0 / model.eps.denominator
    basis: list[Label] | None = None
    added_total = 0
    outcome: PricingOutcome | None = None
    for round_no in range(max_rounds + 1):
        sol, basis = solve_master(model, basis)
        assert dual_objective(model, sol) <= sol.objective + 1e-6, "weak duality violated"
        outcome = pricer(sol.alpha, sol.gamma, sol.delta, model, kcc_eps)
        if outcome.max_certified_ratio <= one_plus:
            info = ColumnGenerationInfo(
                round_no + 1,
                added_total,
                outcome.max_ratio,
                outcome.max_certified_ratio,
            )
            return sol, info
        added = sum(model.add_column(pc.column) for pc in outcome.violations)
        if added == 0:
            # nothing new to add, yet not certified: should be unreachable
            raise NumericalFailureError(
                "pricing found violations only among existing columns"
            )
        added_total += added
    raise SolverLimitError(
        f"column generation exceeded {max_rounds} rounds "
        f"(last max ratio {outcome.max_ratio:.6f})"
    )


def project_to_main_windows(
    sol: LpSolution, model: LpModel
) -> tuple[LpSolution, set[Window]]:
    """Move every positive column off non-canonical windows onto the main
    window of its extended configuration, transferring assignment mass
    proportionally against a frozen per-window total.  The objective value is
    unchanged.  Returns the solution and the set of canonical windows."""
    w_prime = set(model.main_windows)
    x = dict(sol.x)
    y = dict(sol.y)
    # frozen totals per off-set window
    b_w: dict[Window, float] = {}
    for gc, val in sol.x.items():
        if gc.window not in w_prime and val > 0:
            b_w[gc.window] = b_w.get(gc.window, 0.0) + val
    y_by_window: dict[Window, list[tuple[int, float]]] = {}
    for (si, w), val in sol.y.items():
        if w in b_w and val > 0:
            y_by_window.setdefault(w, []).append((si, val))
    for gc, val in sorted(sol.x.items(), key=lambda kv: model.column_key(kv[0])):
        if gc.window in w_prime or val <= 0:
            continue
        target_w = main_window(gc.ext, model.eps, model.t_max, model.staircase)
        assert target_w in w_prime
        target = GeneralizedConfiguration(gc.ext, target_w)
        model.add_column(target)
        x[target] = x.get(target, 0.0) + val
        x.pop(gc, None)
        share = val / b_w[gc.window]
        for si, yval in y_by_window.get(gc.window, []):
            key = (si, target_w)
            y[key] = y.get(key, 0.0) + share * yval
    for w in b_w:
        for si, _ in y_by_window.get(w, []):
            y.pop((si, w), None)
    out = LpSolution(
        sol.objective, x, y, sol.alpha, sol.beta, sol.gamma, sol.delta
    )
    return out, w_prime


def extract_basic(
    sol: LpSolution, model: LpModel, w_prime: set[Window]
) -> LpSolution:
    """Basic solution of the program restricted to canonical windows, no worse
    than ``sol``.  Assignment vectors are then normalized so any component
    at or above 1 becomes exactly 1 (feasibility is preserved: lowering an
    assignment only relaxes the window rows)."""
    c, A, b, x_cols, y_cols, windows = model.arrays(window_filter=w_prime)
    if A.shape[1] and _is_basic(sol, model, x_cols, y_cols, A):
        basic = sol
    else:
        res = solve_lp(c, A, b)
        if res.status != "optimal":
            raise NumericalFailureError(f"basic extraction status {res.status}")
        if res.objective > sol.objective + 1e-6:
            raise NumericalFailureError(
                "basic solution worse than projected solution"
            )
        basic = _solution_from_result(model, res, x_cols, y_cols, windows)
    y = dict(basic.y)
    by_item: dict[int, list[tuple[Window, float]]] = {}
    for (si, w), val in y.items():
        if val > 0:
            by_item.setdefault(si, []).append((w, val))
    for si, entries in by_item.items():
        best_w, best = max(entries, key=lambda e: e[1])
        if best >= 1.0 - FRACTIONAL_TOL:
            for w, _ in entries:
                y.pop((si, w), None)
            y[(si, best_w)] = 1.0
    basic.y = y
    return basic


def _is_basic(sol: LpSolution, model: LpModel, x_cols, y_cols, A: np.ndarray) -> bool:
    """A solution is basic iff its support columns are linearly independent."""
    support = []
    for j, pair in enumerate(y_cols):
        if sol.y.get(pair, 0.0) > FRACTIONAL_TOL:
            support.append(j)
    off = len(y_cols)
    for j, gc in enumerate(x_cols):
        if sol.x.get(gc, 0.0) > FRACTIONAL_TOL:
            support.append(off + j)
    if not support:
        return True
    if len(support) > A.shape[0]:
        return False
    sub = A[:, support]
    return np.linalg.matrix_rank(sub) == len(support)


def dual_objective(model: LpModel, sol: LpSolution) -> float:
    """Value of the dual solution carried by ``sol``."""
    return float(
        sum(d * sol.alpha[v] for v, d in zip(model.sizes, model.demands))
        + sum(sol.beta[it.index] for it in model.smalls)
    )


def verify_solution_rows(model: LpModel, sol: LpSolution, tol: float = 1e-6) -> None:
    """Re-check every covering and window row of the full model against a
    solution dictionary; raises AssertionError on violation."""
    for v, d in zip(model.sizes, model.demands):
        got = sum(
            gc.ext.config.counts[model.sizes.index(v)] * val
            for gc, val in sol.x.items()
        )
        assert got >= d - tol, f"size row {v} violated: {got} < {d}"
    for it in model.smalls:
        got = sum(val for (si, _w), val in sol.y.items() if model.smalls[si].index == it.index)
        assert got >= 1 - tol, f"item row {it.index} violated"
    for w in model.windows:
        xw = sum(val for gc, val in sol.x.items() if gc.window == w)
        ys = sum(
            float(model.smalls[si].size) * val
            for (si, ww), val in sol.y.items()
            if ww == w
        )
        yc = sum(val for (si, ww), val in sol.y.items() if ww == w)
        assert float(w.w) * xw >= ys - tol, f"window size row {w} violated"
        assert w.kappa * xw >= yc - tol, f"window count row {w} violated"
