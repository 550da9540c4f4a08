"""Restricted master program for the scheme, plus the column-generation loop,
the projection onto canonical windows, and basic-solution extraction.

Rows:  one covering row per rounded large size, one per small size type
(the distinct kept small sizes, demand: the type's item count), and a (size,
count) pair of rows per window some small item fits.  A window no small item
fits has no assignment columns, so its two rows would read w.x >= 0 and
kappa.x >= 0 and bind nothing; it gets no rows.  Columns: one per
generalized configuration (cost: the configuration's level cost) and one
zero-cost assignment column per (small type, usable window) pair.  The
master's size thus follows the number of distinct sizes, not n.  The first
master solve starts from the feasible basis of ``LpModel.seed_columns``.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import CostFunction
from .errors import (
    InfeasibleMasterError,
    InvariantError,
    NumericalFailureError,
    SolverLimitError,
)
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
class SmallType:
    size: int  # over LpModel.scale
    items: tuple[int, ...]  # indices in the original instance


def small_types(
    sizes: Sequence[int] | Mapping[int, int], items: Iterable[int]
) -> tuple[SmallType, ...]:
    """The distinct sizes among ``items`` (item i has size ``sizes[i]``), in
    order of first appearance, each with its items."""
    by_size: dict[int, list[int]] = {}
    for i in items:
        by_size.setdefault(sizes[i], []).append(i)
    return tuple(SmallType(v, tuple(its)) for v, its in by_size.items())


@dataclass
class LpModel:
    """Master model state: fixed rows, growable column set.  The fixed part
    is worked out once: ``row_windows`` (the usable windows, which get
    rows), ``y_pairs`` and each column's position in ``columns``."""

    sizes: tuple[int, ...]  # distinct rounded large sizes, descending
    demands: tuple[int, ...]  # multiplicity per size
    scale: int  # common denominator of every size, Instance.scale
    smalls: tuple[SmallType, ...]
    windows: tuple[Window, ...]
    staircase: Staircase
    p_max: int
    eps: Fraction
    t_max: int  # windows with t < t_max fit every small item, t = t_max none
    f: CostFunction
    main_windows: set[Window] = field(default_factory=set)  # canonical windows

    columns: list[GeneralizedConfiguration] = field(default_factory=list)
    row_windows: tuple[Window, ...] = field(init=False)
    y_pairs: tuple[tuple[int, Window], ...] = field(init=False)  # (type, window)
    _position: dict[GeneralizedConfiguration, int] = field(init=False)

    def usable(self, w: Window) -> bool:
        """Small items fit the window: count bound ks[a] >= 1, and t < t_max."""
        return w.a >= 1 and w.t < self.t_max

    def __post_init__(self):
        self.row_windows = tuple(w for w in self.windows if self.usable(w))
        # zero-cost assignment columns for every usable (type, window) pair;
        # windows too small for any small item carry none by construction
        self.y_pairs = tuple(
            (si, w) for si in range(len(self.smalls)) for w in self.row_windows
        )
        self._position = {gc: j for j, gc in enumerate(self.columns)}

    # -- column handling -------------------------------------------------
    def add_column(self, gc: GeneralizedConfiguration) -> bool:
        if gc in self._position:
            return False
        self._position[gc] = len(self.columns)
        self.columns.append(gc)
        return True

    def singleton_column(self, j: int) -> GeneralizedConfiguration:
        """The seed column of size j: one item, level 1, its main window."""
        counts = tuple(1 if i == j else 0 for i in range(len(self.sizes)))
        ext = ExtendedConfiguration(
            Configuration(counts, self.sizes[j], 1), 1, self.staircase.ks[1]
        )
        mw = main_window(ext, self.eps, self.t_max, self.staircase, self.scale)
        return GeneralizedConfiguration(ext, mw)

    def empty_column(self, w: Window) -> GeneralizedConfiguration:
        """The seed column of window w: no large item, level w.a."""
        empty = Configuration((0,) * len(self.sizes), 0, 0)
        ext = ExtendedConfiguration(empty, w.a, self.staircase.ks[w.a])
        return GeneralizedConfiguration(ext, w)

    def seed_columns(self) -> list[Label]:
        """Add the seed columns and return a primal feasible first basis over
        them, in the labels of ``arrays()`` (a crash basis in place of phase
        1, after Bixby 1992).  Seeding again adds nothing and returns the
        same labels.

        Size row j is covered by its singleton seed column at level
        demands[j].  When small items are kept, every usable window with
        a <= p_max gets an empty seed configuration, and every small type
        sits on its assignment column to one host window: the one whose
        empty configuration's cost f_at[a] times the level max(S/w, N/kappa)
        it needs is least, where S and N are the total kept small size and
        count less what the singletons already put on the window's rows.
        The host's empty configuration is basic on whichever of its two rows
        needs the larger level, the other row's surplus is basic; a host the
        singletons already cover keeps both surpluses.  Every other row is on
        its surplus.  ``solve_lp`` still checks the basis (its inverse and
        B^-1 b >= 0) and falls back to the slack start, as it does when no
        window can host.
        """
        nv, ns = len(self.sizes), len(self.smalls)
        off = len(self.y_pairs)  # assignment columns come first
        labels: list[Label] = [("s", i) for i in range(nv + ns + 2 * len(self.row_windows))]
        size_on = dict.fromkeys(self.row_windows, 0.0)  # what the singletons put on a row
        count_on = dict.fromkeys(self.row_windows, 0.0)
        for j, d in enumerate(self.demands):
            gc = self.singleton_column(j)
            self.add_column(gc)
            labels[j] = ("x", off + self._position[gc])
            if gc.window in size_on:
                size_on[gc.window] += float(gc.window.w) * d
                count_on[gc.window] += gc.window.kappa * d
        if not self.smalls:
            return labels
        total_size = sum(st.size / self.scale * len(st.items) for st in self.smalls)
        total_count = sum(len(st.items) for st in self.smalls)
        best = None  # (cost, size level, count level, host position, column)
        for h, w in enumerate(self.row_windows):
            if w.a > self.p_max:
                continue
            gc = self.empty_column(w)
            self.add_column(gc)
            by_size = (total_size - size_on[w]) / float(w.w)
            by_count = (total_count - count_on[w]) / w.kappa
            cost = self.staircase.f_at[w.a] * max(by_size, by_count, 0.0)
            if best is None or cost < best[0]:
                best = (cost, by_size, by_count, h, off + self._position[gc])
        if best is None:
            return labels
        _, by_size, by_count, h, col = best
        for si in range(ns):
            labels[nv + si] = ("x", si * len(self.row_windows) + h)  # y_pairs order
        if max(by_size, by_count) > 0.0:
            row = nv + ns + 2 * h + (1 if by_count > by_size else 0)  # size row, count row
            labels[row] = ("x", col)
        return labels

    # -- matrix assembly --------------------------------------------------
    def arrays(self, window_filter: set[Window] | None = None):
        """Dense (c, A, b) plus the active column lists and the windows that
        have rows.

        Rows, in order: one per size, one per small type, then a (size,
        count) pair per usable window.  A configuration column on a window
        without rows touches the size rows only.  With a window filter, rows
        of excluded windows and columns touching them are dropped (the
        temporary program after projection).
        """
        keep = window_filter
        windows = [w for w in self.row_windows if keep is None or w in keep]
        x_cols = [gc for gc in self.columns if keep is None or gc.window in keep]
        y_cols = [(si, w) for si, w in self.y_pairs if keep is None or w in keep]
        nv, ns = len(self.sizes), len(self.smalls)
        w_row = {w: nv + ns + 2 * i for i, w in enumerate(windows)}
        # assignment columns first: their indices never move when the column
        # generation appends configuration columns, keeping bases warm-startable
        ncols = len(x_cols) + len(y_cols)
        A = np.zeros((nv + ns + 2 * len(windows), ncols), dtype=np.float64)
        c = np.zeros(ncols, dtype=np.float64)
        b = np.zeros(A.shape[0], dtype=np.float64)
        b[:nv] = self.demands
        b[nv : nv + ns] = [len(st.items) for st in self.smalls]
        # every column touches each of its rows once, so plain assignment
        # into the zero matrix gives the entries a per-column loop would add
        ys = np.arange(len(y_cols))
        si = np.array([si for si, _ in y_cols], dtype=np.intp)
        y_rows = np.array([w_row[w] for _, w in y_cols], dtype=np.intp)
        A[nv + si, ys] = 1.0
        # int / int rounds once, exactly as float(Fraction) does
        A[y_rows, ys] = -np.array([it.size / self.scale for it in self.smalls])[si]
        A[y_rows + 1, ys] = -1.0
        xs = np.arange(len(y_cols), ncols)
        c[xs] = [self.staircase.f_at[gc.ext.p] for gc in x_cols]
        A[:nv, xs] = np.array(
            [gc.ext.config.counts for gc in x_cols], dtype=np.float64
        ).reshape(len(x_cols), nv).T
        on_rows = [(j, gc.window) for j, gc in zip(xs, x_cols) if gc.window in w_row]
        x_on = np.array([j for j, _ in on_rows], dtype=np.intp)
        x_rows = np.array([w_row[w] for _, w in on_rows], dtype=np.intp)
        A[x_rows, x_on] = [float(w.w) for _, w in on_rows]
        A[x_rows + 1, x_on] = [w.kappa for _, w in on_rows]
        return c, A, b, x_cols, y_cols, windows


@dataclass
class LpSolution:
    """A master solution.  ``y`` is keyed by (small type, window); ``assignment``
    is keyed by (item, window), split from ``y`` by ``extract_basic``.  Windows
    without rows have no gamma or delta, which reads as 0."""

    objective: float
    x: dict[GeneralizedConfiguration, float]
    y: dict[tuple[int, Window], float]
    alpha: dict[int, float]
    beta: dict[int, float]  # per small type
    gamma: dict[Window, float]
    delta: dict[Window, float]
    assignment: dict[tuple[int, Window], float] = field(default_factory=dict)

    def fractional_counts(self) -> tuple[int, int]:
        """(F_X, F_Y): fractional configuration columns, and small items whose
        assignment vector is fractional."""
        fx = sum(
            1
            for val in self.x.values()
            if val > FRACTIONAL_TOL and abs(val - round(val)) > FRACTIONAL_TOL
        )
        by_item: dict[int, list[float]] = {}
        for (si, _w), val in self.assignment.items():
            if val > FRACTIONAL_TOL:
                by_item.setdefault(si, []).append(val)
        # an integral item has exactly one component, equal to 1
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
    beta = dict(enumerate(duals[nv : nv + ns]))
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
    basis = model.seed_columns()
    if max_rounds is None:
        max_rounds = 10 * (
            len(model.sizes) + 2 * len(model.windows) + len(model.smalls)
        )
    kcc_eps = 0.5 / model.eps.denominator  # eps / 2
    one_plus = 1.0 + 1.0 / model.eps.denominator
    added_total = 0
    outcome: PricingOutcome | None = None
    for round_no in range(max_rounds + 1):
        sol, basis = solve_master(model, basis)
        if not dual_objective(model, sol) <= sol.objective + 1e-6:
            raise InvariantError("weak duality violated")
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


def project_to_main_windows(sol: LpSolution, model: LpModel) -> LpSolution:
    """Move every positive column off non-canonical windows onto the main
    window of its extended configuration, transferring assignment mass
    proportionally against a frozen per-window total.  The objective value is
    unchanged; the canonical windows are ``model.main_windows``."""
    w_prime = model.main_windows
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
    for gc, val in sorted(sol.x.items()):
        if gc.window in w_prime or val <= 0:
            continue
        target_w = main_window(gc.ext, model.eps, model.t_max, model.staircase, model.scale)
        if target_w not in w_prime:
            raise InvariantError(f"main window {target_w} of a column is not canonical")
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
    return LpSolution(sol.objective, x, y, sol.alpha, sol.beta, sol.gamma, sol.delta)


def extract_basic(sol: LpSolution, model: LpModel) -> LpSolution:
    """Basic solution of the program restricted to the canonical windows
    ``model.main_windows``, no worse than ``sol``, with its small types split
    into items (``split_types``)."""
    c, A, b, x_cols, y_cols, windows = model.arrays(window_filter=model.main_windows)
    if A.shape[1] and _is_basic(sol, x_cols, y_cols, A):
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
    basic.assignment = split_types(basic.y, model)
    return basic


def split_types(
    y: dict[tuple[int, Window], float], model: LpModel
) -> dict[tuple[int, Window], float]:
    """Per-item assignment from per-type values.

    A type's items fill its windows greedily in sorted window order: item q
    takes the part of [q, q + 1) that falls in a window's stretch of the
    cumulative mass.  Cumulative positions within FRACTIONAL_TOL of an
    integer are snapped to it, so an item inside one window gets exactly 1
    there and only an item straddling two windows is fractional; a type with
    n_s positive windows thus has at most n_s - 1 fractional items.  Mass
    beyond the type's count is dropped, which only relaxes the window rows.
    """
    out: dict[tuple[int, Window], float] = {}
    lo = 0.0
    last = None
    for (s, w), val in sorted(y.items()):
        if val <= 0:
            continue
        if s != last:
            last, lo = s, 0.0
        items = model.smalls[s].items
        hi = lo + val
        if abs(hi - round(hi)) <= FRACTIONAL_TOL:
            hi = float(round(hi))
        for q in range(math.floor(lo), min(math.ceil(hi), len(items))):
            out[(items[q], w)] = min(q + 1, hi) - max(q, lo)
        lo = hi
    return out


def _is_basic(sol: LpSolution, x_cols, y_cols, A: np.ndarray) -> bool:
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
        + sum(sol.beta[s] * len(st.items) for s, st in enumerate(model.smalls))
    )


def verify_solution_rows(model: LpModel, sol: LpSolution, tol: float = 1e-6) -> None:
    """Re-check every covering and window row of the full model against a
    solution dictionary; raises InvariantError on violation."""
    for v, d in zip(model.sizes, model.demands):
        got = sum(
            gc.ext.config.counts[model.sizes.index(v)] * val
            for gc, val in sol.x.items()
        )
        if not got >= d - tol:
            raise InvariantError(f"size row {v} violated: {got} < {d}")
    for s, st in enumerate(model.smalls):
        got = sum(val for (si, _w), val in sol.y.items() if si == s)
        if not got >= len(st.items) - tol:
            raise InvariantError(f"small type row {st.size} violated")
    for w in model.windows:
        xw = sum(val for gc, val in sol.x.items() if gc.window == w)
        ys = sum(
            model.smalls[si].size / model.scale * val
            for (si, ww), val in sol.y.items()
            if ww == w
        )
        yc = sum(val for (si, ww), val in sol.y.items() if ww == w)
        if not float(w.w) * xw >= ys - tol:
            raise InvariantError(f"window size row {w} violated")
        if not w.kappa * xw >= yc - tol:
            raise InvariantError(f"window count row {w} violated")
