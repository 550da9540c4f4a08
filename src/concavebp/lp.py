"""Restricted master program for the scheme, plus the column-generation loop,
the projection onto canonical windows, and basic-solution extraction.

Rows:  one covering row per rounded large size, one per small size type
(the distinct kept small sizes, demand: the type's item count), and a (size,
count) pair of rows per window some small item fits.  A window no small item
fits has no assignment columns, so its two rows would read w.x >= 0 and
kappa.x >= 0 and bind nothing; it gets no rows.  Columns: one per
generalized configuration (cost: the configuration's level cost) and
zero-cost assignment columns, one per (small type, usable window) pair that
has entered the master.  Every such pair is a candidate, but it enters only
when its reduced cost size_s gamma_w + delta_w - beta_s, which has a closed
form in the three duals of its rows, is negative (sifting, after Bixby,
Gregory, Lustig, Marsten and Shanno 1992; partial pricing, Chvatal 1983).
The master's size thus follows the number of distinct sizes, not n, and
its assignment columns follow the pairs the optimum uses, not the product
of types and windows.

The first master solve needs no simplex when it can be avoided:
``LpModel.seed_columns`` works out its crash basis's whole vertex in
closed form, levels and row duals, and ``simplex.certify`` accepts the pair
when it is primal and dual feasible with equal objectives.  It rests on
two invariants of the scheme: a singleton's main window has count bound
ks[0] = 0 and no rows, so alpha_j = f(1); and window (0, 1), usable with
a <= p_max, can always host the small items.  Only when the certificate
fails does ``solve_lp`` run, warm from the same basis.  A master solution
carries the keys of its basic columns, so ``extract_basic`` reads
basicness off them when the projected support lies inside the basis, and
runs a rank test only otherwise.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress

import numpy as np

from .core import CostFunction
from .errors import (
    InfeasibleMasterError,
    InvariantError,
    NumericalFailureError,
    SolverLimitError,
)
from .pricing import PricingOutcome, price_all
from .simplex import FEAS_TOL, PIVOT_TOL, Label, LpResult, certify, solve_lp
from .structures import (
    Configuration,
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


@dataclass(frozen=True)
class SeedVertex:
    """A basis of the master in the labels of ``arrays()``, with the vertex
    it determines: ``x`` one level per master column in ``arrays()`` order,
    ``duals`` one per row."""

    labels: list[Label]
    x: np.ndarray
    duals: np.ndarray


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
    """Master model state: fixed rows, growable column set.  Worked out
    once: ``row_windows`` (the usable windows, which get rows) and the
    candidate assignment pairs, one per (small type, row window), type-major.
    The master's columns are ``columns`` and the ``entered`` pairs, in one
    append-only order of entry: a column's position, and with it a
    warm-start label, never moves."""

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
    row_index: dict[Window, int] = field(init=False)  # a window's index in row_windows
    entered: list[int] = field(init=False)  # candidate pairs, in order of entry
    # per configuration, in column order: its master position, and its
    # window's index in row_windows (-1 for a window without rows)
    _position: dict[GeneralizedConfiguration, int] = field(init=False)
    _x_row: list[int] = field(init=False)
    # the fixed assignment block, one entry per candidate pair: its type, its
    # window's index in row_windows, its size-row coefficient, and its master
    # position (-1 until it enters)
    _y_type: np.ndarray = field(init=False)
    _y_window: np.ndarray = field(init=False)
    _y_size: np.ndarray = field(init=False)
    _y_at: np.ndarray = field(init=False)

    def usable(self, w: Window) -> bool:
        """Small items fit the window: count bound ks[a] >= 1, and t < t_max."""
        return w.a >= 1 and w.t < self.t_max

    def __post_init__(self):
        self.row_windows = tuple(w for w in self.windows if self.usable(w))
        self.row_index = {w: i for i, w in enumerate(self.row_windows)}
        # a candidate zero-cost assignment column for every usable (type,
        # window) pair; windows too small for any small item carry none
        ns, nw = len(self.smalls), len(self.row_windows)
        self._y_type = np.repeat(np.arange(ns, dtype=np.intp), nw)
        self._y_window = np.tile(np.arange(nw, dtype=np.intp), ns)
        # int / int rounds once, exactly as float(Fraction) does
        self._y_size = -np.array(
            [st.size / self.scale for st in self.smalls], dtype=np.float64
        )[self._y_type]
        self._y_at = np.full(len(self._y_type), -1, dtype=np.intp)
        self.entered = []
        self._position = {gc: j for j, gc in enumerate(self.columns)}
        self._x_row = [self.row_index.get(gc.window, -1) for gc in self.columns]

    # -- column handling -------------------------------------------------
    def add_column(self, gc: GeneralizedConfiguration) -> bool:
        if gc in self._position:
            return False
        self._position[gc] = len(self.columns) + len(self.entered)
        self._x_row.append(self.row_index.get(gc.window, -1))
        self.columns.append(gc)
        return True

    def enter(self, pairs: Iterable[int]) -> int:
        """Make the candidate pairs ``pairs`` master columns, in pair order
        after every column so far; pairs already in the master are skipped.
        Returns how many entered."""
        picked = np.zeros(len(self._y_at), dtype=bool)
        picked[np.fromiter(pairs, dtype=np.intp)] = True
        new = np.flatnonzero(picked & (self._y_at < 0))
        self._y_at[new] = len(self.columns) + len(self.entered) + np.arange(len(new))
        self.entered.extend(new.tolist())
        return len(new)

    def reduced_costs(self, duals: np.ndarray) -> np.ndarray:
        """rc(s, w) = size_s gamma_w + delta_w - beta_s of every candidate
        pair, under the master's row duals clamped at 0 as ``LpSolution``
        reads them.  An assignment column touches three rows only, so its
        reduced cost needs no column of A."""
        nv, ns = len(self.sizes), len(self.smalls)
        d = np.maximum(duals, 0.0)
        beta, gamma, delta = d[nv : nv + ns], d[nv + ns :: 2], d[nv + ns + 1 :: 2]
        return (
            delta[self._y_window]
            - self._y_size * gamma[self._y_window]
            - beta[self._y_type]
        )

    def singleton_column(self, j: int) -> GeneralizedConfiguration:
        """The seed column of size j: one item, level 1, its main window."""
        counts = tuple(1 if i == j else 0 for i in range(len(self.sizes)))
        cfg = Configuration(counts, self.sizes[j], 1)
        mw = main_window(cfg, 1, self.eps, self.t_max, self.staircase, self.scale)
        return GeneralizedConfiguration(cfg, 1, mw)

    def empty_column(self, w: Window) -> GeneralizedConfiguration:
        """The seed column of window w: no large item, level w.a."""
        return GeneralizedConfiguration(Configuration((0,) * len(self.sizes), 0, 0), w.a, w)

    def seed_columns(self) -> SeedVertex:
        """Add the seed columns, enter the seed basis's assignment pairs, and
        return a primal feasible first basis over them, in the labels of
        ``arrays()`` (a crash basis in place of phase 1, after Bixby 1992),
        together with its vertex: the level of every master column and the
        dual of every row.  Seeding again adds nothing and returns the same
        vertex.

        Size row j is covered by its singleton seed column at level
        demands[j], on a window without rows, so alpha_j = f(1).  When small
        items are kept, every usable window with a <= p_max gets an empty
        seed configuration, and every small type sits on its assignment
        column to one host window, at the type's item count: the host is the
        window whose empty configuration's cost f_at[a] times the level
        max(S/w, N/kappa) it needs is least, where S and N are the total
        kept small size and count.  A host always exists: window (0, 1) is
        usable and p_max >= 1.  The host's empty configuration is basic at
        that level on whichever of its two rows needs the larger level, the
        other row's surplus is basic.

        The rows of every other window then complete the duals.  The host's
        binding row prices small type s at beta_s = size_s f_at[a] / w (size
        row, gamma = f_at[a] / w) or f_at[a] / kappa (count row, delta =
        f_at[a] / kappa).  Every other window is idle: both its rows are
        tight at 0, and on their surpluses they would price its assignment
        columns at -beta_s, so the simplex would spend one degenerate pivot
        per idle window lifting its duals.  Instead one of its assignment
        columns is basic at level 0 in place of one row's surplus, so the
        primal vertex does not move.  On the size row that is the type of
        largest beta_s / size_s, which sets gamma = max_s beta_s / size_s;
        on the count row the type of largest beta_s, which sets delta =
        max_s beta_s.  Either way every assignment column on the window has
        reduced cost size_s gamma + delta - beta_s >= 0 (complementary
        slackness at a degenerate vertex).  The row taken is the one whose
        dual charges the window's capacity less, w gamma against kappa
        delta, so the configurations on the window are priced as cheaply as
        the two dual vertices allow.  The seed basis is then optimal unless
        some empty seed configuration prices below its cost, and
        ``solve_master`` certifies it without a simplex call.

        The basis is triangular, hence nonsingular: each size row belongs to
        its singleton, each type row to its host pair, the host's binding
        row to its configuration, an idle window's row to its pair, and every
        other row to its surplus.  Only the basis's assignment columns enter
        the master; column generation enters any other pair when its
        closed-form reduced cost turns negative.
        """
        nv, ns, nw = len(self.sizes), len(self.smalls), len(self.row_windows)
        labels: list[Label] = [("s", i) for i in range(nv + ns + 2 * nw)]
        levels: dict[int, float] = {}  # a basic column's master position -> level
        duals = np.zeros(len(labels))
        duals[:nv] = self.staircase.f_at[1]
        for j, d in enumerate(self.demands):
            gc = self.singleton_column(j)
            self.add_column(gc)
            labels[j] = ("x", self._position[gc])
            levels[self._position[gc]] = d
        if self.smalls:
            total_size = sum(st.size / self.scale * len(st.items) for st in self.smalls)
            total_count = sum(len(st.items) for st in self.smalls)
            best = None  # (cost, size level, count level, host index, column)
            for h, w in enumerate(self.row_windows):
                if w.a > self.p_max:
                    continue
                gc = self.empty_column(w)
                self.add_column(gc)
                by_size, by_count = total_size / w.w, total_count / w.kappa
                cost = self.staircase.f_at[w.a] * max(by_size, by_count)
                if best is None or cost < best[0]:
                    best = (cost, by_size, by_count, h, self._position[gc])
            if best is None:
                raise InvariantError("no usable window with a <= p_max hosts the small items")
            _, by_size, by_count, h, col = best
            on_pair = {nv + si: si * nw + h for si in range(ns)}  # row -> basic pair
            sizes = -self._y_size[::nw]  # size_s, once per type
            host = self.row_windows[h]
            f_host = self.staircase.f_at[host.a]
            on_count = by_count > by_size
            row = nv + ns + 2 * h + on_count  # size row, count row
            labels[row] = ("x", col)
            levels[col] = max(by_size, by_count)
            duals[row] = f_host / (host.kappa if on_count else host.w)
            beta = np.full(ns, f_host / host.kappa) if on_count else sizes * f_host / host.w
            duals[nv : nv + ns] = beta
            s_size, s_count = int(np.argmax(beta / sizes)), int(np.argmax(beta))
            gamma, delta = beta[s_size] / sizes[s_size], beta[s_count]
            for i, w in enumerate(self.row_windows):
                if i == h:
                    continue
                row = nv + ns + 2 * i
                if w.w * gamma <= w.kappa * delta:
                    on_pair[row], duals[row] = s_size * nw + i, gamma
                else:
                    on_pair[row + 1], duals[row + 1] = s_count * nw + i, delta
            self.enter(on_pair.values())
            for row, pair in on_pair.items():
                labels[row] = ("x", int(self._y_at[pair]))
            for si, st in enumerate(self.smalls):
                levels[int(self._y_at[si * nw + h])] = len(st.items)
        x = np.zeros(len(self.columns) + len(self.entered))
        x[list(levels)] = list(levels.values())
        return SeedVertex(labels, x, duals)

    # -- matrix assembly --------------------------------------------------
    def arrays(self, window_filter: set[Window] | None = None):
        """Dense (c, A, b) over the master's columns, plus each column's key
        (a configuration, or a (small type, window) pair) and the windows
        that have rows.

        Rows, in order: one per size, one per small type, then a (size,
        count) pair per usable window.  Columns follow the master's order of
        entry; only entered pairs are columns.  A configuration column on a
        window without rows touches the size rows only.  With a window
        filter, rows of excluded windows and columns touching them are
        dropped (the temporary program after projection).
        """
        keep = window_filter
        nv, ns = len(self.sizes), len(self.smalls)
        kept = np.array([keep is None or w in keep for w in self.row_windows], dtype=bool)
        windows = list(compress(self.row_windows, kept))
        ys = np.array(self.entered, dtype=np.intp)
        ys = ys[kept[self._y_window[ys]]]
        x_kept = np.array([keep is None or gc.window in keep for gc in self.columns], dtype=bool)
        x_cols = list(compress(self.columns, x_kept))
        # each kept column's master position; the program keeps their order
        x_at = np.fromiter(self._position.values(), dtype=np.intp)  # in column order
        at = np.concatenate([self._y_at[ys], x_at[x_kept]])
        order = np.argsort(at)
        col = np.empty_like(order)
        col[order] = np.arange(len(at))
        yj, xj = col[: len(ys)], col[len(ys) :]
        pairs = zip(self._y_type[ys].tolist(), self._y_window[ys].tolist())
        keys = [(si, self.row_windows[i]) for si, i in pairs] + x_cols
        cols = [keys[i] for i in order.tolist()]
        row_of = nv + ns + 2 * (np.cumsum(kept) - 1)  # a kept window's size row
        A = np.zeros((nv + ns + 2 * len(windows), len(cols)), dtype=np.float64)
        c = np.zeros(len(cols), dtype=np.float64)
        b = np.zeros(A.shape[0], dtype=np.float64)
        b[:nv] = self.demands
        b[nv : nv + ns] = [len(st.items) for st in self.smalls]
        # every column touches each of its rows once, so plain assignment
        # into the zero matrix gives the entries a per-column loop would add
        y_rows = row_of[self._y_window[ys]]
        A[nv + self._y_type[ys], yj] = 1.0
        A[y_rows, yj] = self._y_size[ys]
        A[y_rows + 1, yj] = -1.0
        c[xj] = [self.staircase.f_at[gc.p] for gc in x_cols]
        A[:nv, xj] = np.array(
            [gc.config.counts for gc in x_cols], dtype=np.float64
        ).reshape(len(x_cols), nv).T
        # a kept configuration on a window with rows keeps that window
        x_win = np.array(self._x_row, dtype=np.intp)[x_kept]
        on = x_win >= 0
        x_win, x_on = x_win[on], xj[on]
        A[row_of[x_win], x_on] = np.array([w.w for w in self.row_windows])[x_win]
        A[row_of[x_win] + 1, x_on] = np.array([w.kappa for w in self.row_windows])[x_win]
        return c, A, b, cols, windows


@dataclass
class LpSolution:
    """A master solution.  ``y`` is keyed by (small type, window); ``assignment``
    is keyed by (item, window), split from ``y`` by ``extract_basic``.  Windows
    without rows have no gamma or delta, which reads as 0.  ``basis`` holds
    the keys of the master's basic columns."""

    objective: float
    x: dict[GeneralizedConfiguration, float]
    y: dict[tuple[int, Window], float]
    alpha: dict[int, float]
    beta: dict[int, float]  # per small type
    gamma: dict[Window, float]
    delta: dict[Window, float]
    assignment: dict[tuple[int, Window], float] = field(default_factory=dict)
    basis: frozenset = frozenset()

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


def _solution_from_result(model: LpModel, res: LpResult, cols, windows) -> LpSolution:
    y, x = {}, {}
    for j in np.flatnonzero(res.x > 0).tolist():
        key = cols[j]
        (x if isinstance(key, GeneralizedConfiguration) else y)[key] = float(res.x[j])
    # duals of >= rows in a minimization are non-negative; clamp float dust
    duals = [max(0.0, float(d)) for d in res.duals]
    nv, ns = len(model.sizes), len(model.smalls)
    alpha = dict(zip(model.sizes, duals[:nv]))
    beta = dict(enumerate(duals[nv : nv + ns]))
    gamma = dict(zip(windows, duals[nv + ns :: 2]))
    delta = dict(zip(windows, duals[nv + ns + 1 :: 2]))
    basis = frozenset(cols[j] for kind, j in res.basis if kind == "x")
    return LpSolution(res.objective, x, y, alpha, beta, gamma, delta, basis=basis)


def solve_master(
    model: LpModel,
    warm_basis: list[Label] | None = None,
    seed: SeedVertex | None = None,
) -> tuple[LpSolution, LpResult]:
    """Solve the current restricted master exactly; returns duals as well,
    and the simplex result for its basis and pivot count.  A ``seed``
    vertex that ``certify`` accepts (A x >= b - FEAS_TOL among its tests)
    is the optimum as it is, and no simplex runs; otherwise the simplex
    starts from ``warm_basis`` and its answer's residual is checked."""
    c, A, b, cols, windows = model.arrays()
    if seed is not None and certify(c, A, b, seed.x, seed.duals):
        res = LpResult(
            "optimal", seed.x, float(c @ seed.x), seed.duals, seed.labels, 0, certified=True
        )
    else:
        res = solve_lp(c, A, b, basis=warm_basis)
        if res.status == "infeasible":
            raise InfeasibleMasterError("restricted master infeasible; seeding is broken")
        if res.status != "optimal":
            raise NumericalFailureError(f"master solve ended with status {res.status}")
        resid = np.min(A @ res.x - b) if len(b) else 0.0
        if resid < -FEAS_TOL:
            raise NumericalFailureError(f"master residual {resid:.2e}")
    return _solution_from_result(model, res, cols, windows), res


@dataclass
class ColumnGenerationInfo:
    iterations: int  # master solves
    columns_added: int  # configuration columns
    pairs_entered: int  # assignment columns entered after seeding
    pivots: int  # simplex pivots over every master solve
    final_max_ratio: float
    final_certified_ratio: float
    seed_certified: bool  # the first master solve was the certified seed vertex


def column_generation(
    model: LpModel,
    max_rounds: int | None = None,
    pricer=price_all,
) -> tuple[LpSolution, ColumnGenerationInfo]:
    """Alternate master solves and pricing until no assignment pair enters
    and no column's dual violation ratio certifiably exceeds 1 + eps.

    Assignment columns are sifted (Bixby et al. 1992): the master holds the
    pairs ``seed_columns`` entered, and after each solve every candidate
    pair whose closed-form reduced cost is negative enters, and the master
    is solved again.  Configurations are priced only once no pair enters, so
    the oracle sees the duals of the master over every pair.  The knapsack
    oracle runs at accuracy eps/2 and its slack is absorbed into the
    certified ratio, so termination implies the scaled duals are feasible
    and the master value is within (1 + eps) of the full program's optimum.
    A round is one master solve; the default limit leaves one round per
    candidate pair on top of the configuration rounds.  The first round
    returns the seed vertex when its certificate holds, with no simplex
    call.
    """
    seed = model.seed_columns()
    basis = seed.labels
    if max_rounds is None:
        max_rounds = len(model._y_at) + 10 * (
            len(model.sizes) + 2 * len(model.windows) + len(model.smalls)
        )
    kcc_eps = 0.5 / model.eps.denominator  # eps / 2
    one_plus = 1.0 + 1.0 / model.eps.denominator
    added_total = entered_total = pivots = 0
    outcome: PricingOutcome | None = None
    for round_no in range(max_rounds + 1):
        sol, res = solve_master(model, basis, seed if round_no == 0 else None)
        if round_no == 0:
            seed_certified = res.certified
        basis, pivots = res.basis, pivots + res.iterations
        if not dual_objective(model, sol) <= sol.objective + 1e-6:
            raise InvariantError("weak duality violated")
        entered = model.enter(np.flatnonzero(model.reduced_costs(res.duals) < -PIVOT_TOL))
        if entered:
            entered_total += entered
            continue
        outcome = pricer(sol.alpha, sol.gamma, sol.delta, model, kcc_eps)
        if outcome.max_certified_ratio <= one_plus:
            info = ColumnGenerationInfo(
                round_no + 1,
                added_total,
                entered_total,
                pivots,
                outcome.max_ratio,
                outcome.max_certified_ratio,
                seed_certified,
            )
            return sol, info
        added = sum(model.add_column(pc.column) for pc in outcome.violations)
        if added == 0:
            # no pair entered, nothing new to add, yet not certified: should
            # be unreachable
            raise NumericalFailureError(
                "pricing found violations only among existing columns"
            )
        added_total += added
    last = f"last max ratio {outcome.max_ratio:.6f}" if outcome else "pairs still entering"
    raise SolverLimitError(f"column generation exceeded {max_rounds} rounds ({last})")


def project_to_main_windows(sol: LpSolution, model: LpModel) -> LpSolution:
    """Move every positive column off non-canonical windows onto the main
    window of its extended configuration, transferring assignment mass
    proportionally against a frozen per-window total.  The objective value is
    unchanged; the canonical windows are ``model.main_windows``.  The target
    columns join the model, and the pairs that receive assignment mass enter
    it, so ``extract_basic``'s program contains the projected solution.  The
    master's basis keys pass through unchanged."""
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
        target_w = main_window(
            gc.config, gc.p, model.eps, model.t_max, model.staircase, model.scale
        )
        if target_w not in w_prime:
            raise InvariantError(f"main window {target_w} of a column is not canonical")
        target = GeneralizedConfiguration(gc.config, gc.p, target_w)
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
    nw = len(model.row_windows)
    model.enter(si * nw + model.row_index[w] for si, w in y if w in model.row_index)
    return LpSolution(
        sol.objective, x, y, sol.alpha, sol.beta, sol.gamma, sol.delta, basis=sol.basis
    )


def extract_basic(sol: LpSolution, model: LpModel) -> LpSolution:
    """Basic solution of the program restricted to the canonical windows
    ``model.main_windows``, no worse than ``sol``, with its small types split
    into items (``split_types``).

    A support inside ``sol.basis`` is a subset of a nonsingular basis's
    columns, so it is independent, in the master and in the restricted
    program, whose dropped rows it does not touch: ``sol`` is basic as it
    is.  Any other support gets the rank test, and a re-solve when it
    fails."""
    basic = sol
    support = {key for key, val in chain(sol.x.items(), sol.y.items()) if val > FRACTIONAL_TOL}
    if not support <= sol.basis:
        c, A, b, cols, windows = model.arrays(window_filter=model.main_windows)
        if not (A.shape[1] and _is_basic(support, cols, A)):
            res = solve_lp(c, A, b)
            if res.status != "optimal":
                raise NumericalFailureError(f"basic extraction status {res.status}")
            if res.objective > sol.objective + 1e-6:
                raise NumericalFailureError(
                    "basic solution worse than projected solution"
                )
            basic = _solution_from_result(model, res, cols, windows)
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


def _is_basic(support: set, cols, A: np.ndarray) -> bool:
    """A solution is basic iff the columns of its support (the keys of its
    values above FRACTIONAL_TOL) are linearly independent."""
    columns = [j for j, key in enumerate(cols) if key in support]
    if not columns:
        return True
    if len(columns) > A.shape[0]:
        return False
    return np.linalg.matrix_rank(A[:, columns]) == len(columns)


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
            gc.config.counts[model.sizes.index(v)] * val
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
        if not w.w * xw >= ys - tol:
            raise InvariantError(f"window size row {w} violated")
        if not w.kappa * xw >= yc - tol:
            raise InvariantError(f"window count row {w} violated")
