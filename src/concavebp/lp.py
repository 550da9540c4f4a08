"""Restricted master program for the scheme, plus the column-generation loop,
the projection onto canonical windows, and basic-solution extraction.

Rows:  one covering row per rounded large size, one per small size type
(the distinct kept small sizes, demand: the type's item count), and a (size,
count) pair of rows per window some small item fits; a window no small item
fits would only get rows that bind nothing.  Columns: one per generalized
configuration (cost: its level cost) and zero-cost assignment columns, one
per (small type, usable window) pair that has entered the master.  Every
such pair is a candidate, but it enters only when its closed-form reduced
cost size_s gamma_w + delta_w - beta_s is negative (sifting, after Bixby,
Gregory, Lustig, Marsten and Shanno 1992; partial pricing, Chvatal 1983).
The master's size thus follows the number of distinct sizes, not n.

``LpModel`` stores each master column once, in its order of entry: key,
cost and the run of its (row, value) nonzeros; ``arrays()`` scatters the
store into dense (c, A, b).  Keys are tuples, hashed and compared in C: a
configuration column's is a ``GeneralizedConfiguration`` (a named tuple,
which within the model's window grid compares as (counts, p, t, a)), a
pair's the plain tuple (small type, window); code that tells them apart
asks for the class ``GeneralizedConfiguration``, since both are tuples.
A solution's row duals are one vector in that row order,
``LpSolution.duals``, which the closed-form pair pricing and
``pricing.price_all`` read by row.

The first master solve needs no simplex when it can be avoided:
``LpModel.seed_columns`` works out its crash basis's whole vertex in
closed form, and ``simplex.certify`` accepts it when it is primal and dual
feasible with equal objectives.  It rests on two invariants of the scheme:
a singleton's main window has count bound ks[0] = 0 and no rows, so
alpha_j = f(1); and window (0, 1), usable with a <= p_max, can always host
the small items.  Only when the certificate fails does ``solve_lp`` run,
warm from the same basis.  A master solution carries the keys of its basic
columns, so ``extract_basic`` reads basicness off them when the projected
support lies inside the basis, and runs a rank test only otherwise.

The basic solution's small types are split into items by runs, not item by
item: ``split_types`` gives each positive (small type, window) pair its
snapped stretch [lo, hi) of the type's cumulative mass, so
``LpSolution.assignment`` has one entry per such pair whatever the item
count.  Item q of the type lies wholly in the window when lo <= q and
q + 1 <= hi; only an item that straddles an end is fractional, and
``fractional_counts`` looks at those alone.
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
    Every master column is stored once, in its order of entry, as its key (a
    configuration, or a (small type, window) pair), its cost and its run of
    (row, value) nonzeros in the rows of ``arrays()``: a column's position,
    and with it a warm-start label, never moves.  ``columns`` lists the
    configurations among them."""

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

    columns: list[GeneralizedConfiguration] = field(init=False)
    row_windows: tuple[Window, ...] = field(init=False)
    row_index: dict[Window, int] = field(init=False)  # a window's index in row_windows
    _position: dict[GeneralizedConfiguration, int] = field(init=False)  # master position
    # the column store: per column its key and cost; column j's (row, value)
    # nonzeros are _nz[_starts[j] : _starts[j + 1]]
    _keys: list = field(init=False)
    _costs: list[float] = field(init=False)
    _starts: list[int] = field(init=False)
    _nz: list[tuple[int, float]] = field(init=False)
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
        self.columns, self._position = [], {}
        self._keys, self._costs, self._starts, self._nz = [], [], [0], []

    # -- column handling -------------------------------------------------
    def _store(self, key, cost: float, run: list[tuple[int, float]]) -> None:
        """Append one master column: its key, its cost, its (row, value) run."""
        self._keys.append(key)
        self._costs.append(cost)
        self._nz.extend(run)
        self._starts.append(len(self._nz))

    def add_column(self, gc: GeneralizedConfiguration) -> bool:
        at = len(self._keys)
        if self._position.setdefault(gc, at) != at:
            return False
        self.columns.append(gc)
        counts = gc.config.counts
        run = list(compress(enumerate(counts), counts))  # (size row, count) where count > 0
        i = self.row_index.get(gc.window)
        if i is not None:  # a window without rows adds none
            row = len(self.sizes) + len(self.smalls) + 2 * i
            run += [(row, gc.window.w), (row + 1, gc.window.kappa)]
        self._store(gc, self.staircase.f_at[gc.p], run)
        return True

    def enter(self, pairs: Iterable[int]) -> int:
        """Make the candidate pairs ``pairs`` master columns, in pair order
        after every column so far; pairs already in the master are skipped.
        Returns how many entered."""
        picked = np.zeros(len(self._y_at), dtype=bool)
        picked[np.fromiter(pairs, dtype=np.intp)] = True
        new = np.flatnonzero(picked & (self._y_at < 0))
        self._y_at[new] = len(self._keys) + np.arange(len(new))
        nv, ns = len(self.sizes), len(self.smalls)
        types, wins, sizes = (y[new].tolist() for y in (self._y_type, self._y_window, self._y_size))
        # each pair's run: its type row, its window's size row and count row
        self._keys += [(si, self.row_windows[i]) for si, i in zip(types, wins)]
        self._costs += [0.0] * len(new)
        end = self._starts[-1]
        self._starts += range(end + 3, end + 3 * len(new) + 1, 3)
        for si, i, size in zip(types, wins, sizes):
            row = nv + ns + 2 * i
            self._nz += ((nv + si, 1.0), (row, size), (row + 1, -1.0))
        return len(new)

    def reduced_costs(self, duals: np.ndarray) -> np.ndarray:
        """rc(s, w) = size_s gamma_w + delta_w - beta_s of every candidate
        pair, under the master's row duals ``LpSolution.duals``.  An
        assignment column touches three rows only, so its reduced cost needs
        no column of A."""
        nv, ns = len(self.sizes), len(self.smalls)
        beta, gamma, delta = duals[nv : nv + ns], duals[nv + ns :: 2], duals[nv + ns + 1 :: 2]
        w = self._y_window
        return delta[w] - self._y_size * gamma[w] - beta[self._y_type]

    def singleton_column(self, j: int) -> GeneralizedConfiguration:
        """The seed column of size j: one item, level 1, its main window."""
        counts = (0,) * j + (1,) + (0,) * (len(self.sizes) - j - 1)
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
        x = np.zeros(len(self._keys))
        x[list(levels)] = list(levels.values())
        return SeedVertex(labels, x, duals)

    # -- matrix assembly --------------------------------------------------
    def arrays(self, window_filter: set[Window] | None = None):
        """Dense (c, A, b) over the master's columns, plus each column's key
        (a configuration, or a (small type, window) pair): one scatter of
        the column store.

        Rows, in order: one per size, one per small type, then a (size,
        count) pair per usable window.  Columns follow the master's order of
        entry.  With a window filter, rows of excluded windows and columns
        on excluded windows are dropped (the temporary program after
        projection).
        """
        keep = window_filter
        nv, ns = len(self.sizes), len(self.smalls)
        kept = np.array([keep is None or w in keep for w in self.row_windows], dtype=bool)
        rows = np.concatenate([np.ones(nv + ns, dtype=bool), np.repeat(kept, 2)])
        windows = (
            k.window if isinstance(k, GeneralizedConfiguration) else k[1] for k in self._keys
        )
        on = np.array([keep is None or w in keep for w in windows], dtype=bool)
        # a kept column's rows are all kept: its window's, and the fixed ones
        run_len = np.diff(self._starts)
        nz = np.array(self._nz, dtype=np.float64).reshape(-1, 2)[np.repeat(on, run_len)]
        row_at, col_at = np.cumsum(rows) - 1, np.cumsum(on) - 1
        cols = list(compress(self._keys, on))
        A = np.zeros((int(rows.sum()), len(cols)), dtype=np.float64)
        A[row_at[nz[:, 0].astype(np.intp)], np.repeat(col_at[on], run_len[on])] = nz[:, 1]
        c = np.array(self._costs, dtype=np.float64)[on]
        b = np.zeros(A.shape[0], dtype=np.float64)
        b[:nv] = self.demands
        b[nv : nv + ns] = [len(st.items) for st in self.smalls]
        return c, A, b, cols


@dataclass
class LpSolution:
    """A master solution.  ``y`` is keyed by (small type, window), and so is
    ``assignment``, which ``extract_basic`` splits from ``y``: the pair's
    snapped stretch (lo, hi) of the type's cumulative item mass, clipped to
    the type's item count (``split_types``).  ``duals`` holds the row duals
    of the program solved, clamped at 0, in the row order of its
    ``arrays()``: alpha per size, beta per small type, then gamma and delta
    per window with rows.  ``basis`` holds the keys of the master's basic
    columns."""

    objective: float
    x: dict[GeneralizedConfiguration, float]
    y: dict[tuple[int, Window], float]
    duals: np.ndarray
    assignment: dict[tuple[int, Window], tuple[float, float]] = field(default_factory=dict)
    basis: frozenset = frozenset()

    def fractional_counts(self) -> tuple[int, int]:
        """(F_X, F_Y): fractional configuration columns, and small items whose
        assignment vector is fractional.

        An item wholly inside one stretch has the one component 1 there and
        no other, so only the items straddling a stretch's end are looked
        at: item q of a stretch [lo, hi) holds min(q + 1, hi) - max(q, lo)
        of it, and an item counts unless its one component above
        FRACTIONAL_TOL is within FRACTIONAL_TOL of 1."""
        fx = sum(
            1
            for val in self.x.values()
            if val > FRACTIONAL_TOL and abs(val - round(val)) > FRACTIONAL_TOL
        )
        by_item: dict[tuple[int, int], list[float]] = {}
        for (s, _w), (lo, hi) in self.assignment.items():
            first, stop = math.floor(lo), math.ceil(hi)
            for q in {first, stop - 1}:
                if first <= q < stop and (q < lo or q + 1 > hi):
                    val = min(q + 1, hi) - max(q, lo)
                    if val > FRACTIONAL_TOL:
                        by_item.setdefault((s, q), []).append(val)
        fy = sum(
            1
            for vals in by_item.values()
            if not (len(vals) == 1 and abs(vals[0] - 1.0) <= FRACTIONAL_TOL)
        )
        return fx, fy


def _solution_from_result(res: LpResult, cols) -> LpSolution:
    y, x = {}, {}
    for j in np.flatnonzero(res.x > 0).tolist():
        key = cols[j]
        (x if isinstance(key, GeneralizedConfiguration) else y)[key] = float(res.x[j])
    # duals of >= rows in a minimization are non-negative; clamp float dust
    duals = np.where(res.duals > 0.0, res.duals, 0.0)
    basis = frozenset(cols[j] for kind, j in res.basis if kind == "x")
    return LpSolution(res.objective, x, y, duals, basis=basis)


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
    c, A, b, cols = model.arrays()
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
    return _solution_from_result(res, cols), res


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
        entered = model.enter(np.flatnonzero(model.reduced_costs(sol.duals) < -PIVOT_TOL))
        if entered:
            entered_total += entered
            continue
        outcome = pricer(sol.duals, model, kcc_eps)
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
    return LpSolution(sol.objective, x, y, sol.duals, basis=sol.basis)


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
        c, A, b, cols = model.arrays(window_filter=model.main_windows)
        if not (A.shape[1] and _is_basic(support, cols, A)):
            res = solve_lp(c, A, b)
            if res.status != "optimal":
                raise NumericalFailureError(f"basic extraction status {res.status}")
            if res.objective > sol.objective + 1e-6:
                raise NumericalFailureError(
                    "basic solution worse than projected solution"
                )
            basic = _solution_from_result(res, cols)
    basic.assignment = split_types(basic.y, model)
    return basic


def split_types(
    y: dict[tuple[int, Window], float], model: LpModel
) -> dict[tuple[int, Window], tuple[float, float]]:
    """Per-type assignment as stretches of cumulative mass.

    A type's items fill its windows greedily in sorted window order: the
    pair (s, w) takes the stretch [lo, hi) of the type's cumulative mass,
    and item q lies wholly in w when lo <= q and q + 1 <= hi.  Every end
    within FRACTIONAL_TOL of an integer is snapped to it, so an item inside
    one window is wholly there and only an item straddling two windows is
    fractional; a type with n_s positive windows thus has at most n_s - 1
    fractional items.  Ends are clipped to the type's item count: mass
    beyond it covers no item, which only relaxes the window rows.  One entry
    per positive pair, whatever the item count.
    """
    out: dict[tuple[int, Window], tuple[float, float]] = {}
    lo = 0.0
    last = None
    for (s, w), val in sorted(y.items()):
        if val <= 0:
            continue
        if s != last:
            last, lo = s, 0.0
        hi = lo + val
        if abs(hi - round(hi)) <= FRACTIONAL_TOL:
            hi = float(round(hi))
        count = float(len(model.smalls[s].items))
        out[(s, w)] = (min(lo, count), min(hi, count))
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
    """Value of the dual solution carried by ``sol``: b.duals, over the size
    and small type rows, the only rows with b != 0."""
    demands = [*model.demands, *(len(st.items) for st in model.smalls)]
    return float(sol.duals[: len(demands)] @ demands)


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
