import math
import random
from fractions import Fraction

import numpy as np
import pytest

from concavebp import make_fq
from concavebp.errors import InfeasibleMasterError
from concavebp.lp import (
    LpModel,
    LpSolution,
    column_generation,
    dual_objective,
    extract_basic,
    project_to_main_windows,
    small_types,
    solve_master,
    split_types,
    verify_solution_rows,
)
from concavebp.simplex import _labels_to_indices, _State, solve_lp
from concavebp.structures import (
    Configuration,
    ExtendedConfiguration,
    GeneralizedConfiguration,
    build_staircase,
    build_windows,
    enumerate_configurations,
    main_window,
)
from conftest import round_size_to_power


def build_model(
    sizes,
    demands,
    small_sizes=(),
    n=12,
    eps=Fraction(1, 3),
    q=2,
    delta_cap=None,
):
    sizes = tuple(Fraction(s) for s in sizes)
    small = tuple(Fraction(s) for s in small_sizes)
    scale = math.lcm(*(s.denominator for s in sizes + small))
    int_sizes = tuple(int(s * scale) for s in sizes)
    small_ints = {100 + i: int(s * scale) for i, s in enumerate(small)}
    f = make_fq(q, n)
    stair = build_staircase(f, eps, n)
    if small:
        s_min = min(small)
        delta = 1 / s_min
    else:
        s_min = Fraction(1)
        delta = Fraction(eps.denominator)
    if delta_cap is not None:
        delta = Fraction(delta_cap)
    _, t_star = round_size_to_power(eps, s_min)
    p_max = next(
        (p for p, kp in enumerate(stair.ks) if kp >= delta), stair.ell
    )
    windows = build_windows(eps, t_star + 1, stair)
    # the full set of canonical windows, as the pipeline passes it
    mains = set()
    for cfg in enumerate_configurations(list(int_sizes), list(demands), eps.denominator, scale):
        for p in range(1, p_max + 1):
            if cfg.n_items <= stair.ks[p]:
                ext = ExtendedConfiguration(cfg, p, stair.ks[p])
                mains.add(main_window(ext, eps, t_star + 1, stair, scale))
    return LpModel(
        sizes=int_sizes,
        demands=tuple(demands),
        scale=scale,
        smalls=small_types(small_ints, small_ints),
        windows=tuple(windows),
        staircase=stair,
        p_max=p_max,
        eps=eps,
        t_max=t_star + 1,
        f=f,
        main_windows=mains,
    )


class TestSimplex:
    def test_tiny_lp(self):
        # min x0 + x1 st x0 + x1 >= 2, x0 >= 1  ->  x = (2, 0) or (1, 1), obj 2
        res = solve_lp(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0], [1.0, 0.0]]),
            np.array([2.0, 1.0]),
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0)
        assert res.duals @ np.array([2.0, 1.0]) == pytest.approx(2.0)

    def test_infeasible_reported(self):
        # x >= 2 with -x >= 0 is impossible (rows must have b >= 0)
        res = solve_lp(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([2.0, 0.0]),
        )
        assert res.status == "infeasible"

    def test_degenerate_lp_terminates(self):
        rng = random.Random(7)
        for _ in range(20):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = np.array([[rng.choice([0.0, 1.0, 2.0]) for _ in range(n)] for _ in range(m)])
            b = np.array([rng.choice([0.0, 1.0]) for _ in range(m)])
            c = np.array([rng.random() for _ in range(n)])
            res = solve_lp(c, A, b)
            assert res.status in ("optimal", "infeasible")
            if res.status == "optimal":
                assert np.all(A @ res.x >= b - 1e-7)


class TestSolveMaster:
    def test_single_size_single_column(self):
        model = build_model(["1/2"], [6])
        model.seed_columns()
        # keep only the seed column for v=1/2 (plus model rows); the optimum
        # packs ceil-free mass n(v) / n(v, C) at cost f(1)
        sol, _ = solve_master(model)
        assert sol.objective == pytest.approx(6.0)
        assert sum(sol.x.values()) == pytest.approx(6.0)

    def test_pure_covering_without_smalls(self):
        model = build_model(["1/2", "1/3"], [2, 3])
        model.seed_columns()
        sol, _ = solve_master(model)
        assert sol.objective == pytest.approx(5.0)
        assert not sol.y

    def test_hand_fixture_two_sizes(self):
        # sizes 1/2 (x2) and 1/4 (x4); seeds cost 1 per item (6 total), but a
        # mixed column {1x1/2, 2x1/4} at level k_3 = 3 costs f_2(3) = 2 and two
        # copies of it cover all demand for a total of 4
        model = build_model(["1/2", "1/4"], [2, 4])
        model.seed_columns()
        mixed = Configuration((1, 2), model.scale, 3)
        ext = ExtendedConfiguration(mixed, 3, model.staircase.ks[3])
        gc = GeneralizedConfiguration(
            ext, main_window(ext, model.eps, model.t_max, model.staircase, model.scale)
        )
        model.add_column(gc)
        sol, _ = solve_master(model)
        assert sol.objective == pytest.approx(4.0)
        assert sol.x[gc] == pytest.approx(2.0)

    def test_infeasible_master_raises(self):
        model = build_model(["1/2"], [6])
        # no columns at all: the size row cannot be covered
        with pytest.raises(InfeasibleMasterError):
            solve_master(model)

    def test_weak_duality_and_dual_signs(self):
        model = build_model(["1/2", "2/5"], [3, 4], small_sizes=["1/5", "1/6"])
        model.seed_columns()
        sol, _ = solve_master(model)
        assert dual_objective(model, sol) <= sol.objective + 1e-6
        for group in (sol.alpha, sol.beta, sol.gamma, sol.delta):
            for val in group.values():
                assert val >= 0.0


class TestColumnGeneration:
    def test_single_size_converges_fast(self):
        model = build_model(["1/2"], [6], q=4)
        sol, info = column_generation(model)
        # two items per bin at level 2 costs f(2) = 2 per bin, 3 bins
        assert sol.objective == pytest.approx(6.0)
        assert info.iterations <= 3
        assert info.final_max_ratio <= 1 + 1 / 3 + 1e-9

    def test_identical_bins_closed_form(self):
        # six items of size 1/3 fit three per bin; f = f_2 so a full bin
        # costs f(3) = 2, and the fractional optimum is 6/3 * 2 = 4
        model = build_model(["1/3"], [6], q=2)
        sol, info = column_generation(model)
        assert sol.objective == pytest.approx(4.0)
        assert info.final_certified_ratio <= 1 + 1 / 3 + 1e-9

    def test_round_limit_surfaces_as_error(self):
        from concavebp.errors import SolverLimitError

        # unit cost: pairing two halves beats singletons, so the first pricing
        # round must add columns; a zero-round budget cannot converge
        model = build_model(["1/2"], [6], q=1)
        with pytest.raises(SolverLimitError):
            column_generation(model, max_rounds=0)

    def test_against_explicit_full_program(self):
        rng = random.Random(19)
        for _ in range(8):
            nsizes = rng.randint(1, 3)
            sizes = sorted(
                {Fraction(rng.randint(4, 12), 12) for _ in range(nsizes)}, reverse=True
            )
            demands = [rng.randint(1, 3) for _ in sizes]
            smalls = [Fraction(rng.randint(1, 3), 12) for _ in range(rng.randint(0, 2))]
            model = build_model(sizes, demands, small_sizes=smalls, q=rng.choice([1, 2, 3]))
            sol, info = column_generation(model)
            opt_full = _solve_full_program(model)
            assert sol.objective <= (1 + 1 / 3) * opt_full + 1e-6
            assert sol.objective >= opt_full - 1e-6


    def test_duals_price_every_master_column(self):
        # reduced costs are computed from each column's meaning, not through
        # the matrix, so a dual read from the wrong row shows up here
        rng = random.Random(29)
        checked = 0
        for _ in range(12):
            sizes = sorted(
                {Fraction(rng.randint(4, 12), 12) for _ in range(rng.randint(1, 3))},
                reverse=True,
            )
            demands = [rng.randint(1, 4) for _ in sizes]
            smalls = [Fraction(rng.randint(1, 3), 12) for _ in range(rng.randint(0, 5))]
            model = build_model(sizes, demands, small_sizes=smalls, q=rng.choice([1, 2, 3]))
            sol, _ = column_generation(model)
            assert dual_objective(model, sol) == pytest.approx(sol.objective, abs=1e-7)
            for gc in model.columns:
                w = gc.window
                # a window no small item fits has no rows, so no duals
                value = (
                    sum(n * sol.alpha[v] for n, v in zip(gc.ext.config.counts, model.sizes))
                    + float(w.w) * sol.gamma.get(w, 0.0)
                    + w.kappa * sol.delta.get(w, 0.0)
                )
                assert model.staircase.f_at[gc.ext.p] - value >= -1e-7
            for si, w in model.y_pairs:
                size = model.smalls[si].size / model.scale
                value = sol.beta[si] - size * sol.gamma[w] - sol.delta[w]
                assert -value >= -1e-7
            checked += len(model.columns) + len(model.y_pairs)
        assert checked >= 1000


def _solve_full_program(model: LpModel) -> float:
    """Optimum over every valid generalized configuration, built explicitly."""
    probe = LpModel(
        sizes=model.sizes,
        demands=model.demands,
        scale=model.scale,
        smalls=model.smalls,
        windows=model.windows,
        staircase=model.staircase,
        p_max=model.p_max,
        eps=model.eps,
        t_max=model.t_max,
        f=model.f,
        main_windows=set(model.main_windows),
    )
    configs = enumerate_configurations(
        list(model.sizes), list(model.demands), model.eps.denominator, model.scale
    )
    for cfg in configs:
        for p in range(1, model.p_max + 1):
            if cfg.n_items > model.staircase.ks[p]:
                continue
            ext = ExtendedConfiguration(cfg, p, model.staircase.ks[p])
            mw = main_window(ext, model.eps, model.t_max, model.staircase, model.scale)
            for w in model.windows:
                if mw.dominates(w):
                    probe.add_column(GeneralizedConfiguration(ext, w))
    sol, _ = solve_master(probe)
    return sol.objective


class TestProjection:
    def _converged(self, small_sizes=("1/5", "2/11", "1/6")):
        model = build_model(
            ["3/5", "1/2"], [2, 2], small_sizes=small_sizes, q=3
        )
        sol, _ = column_generation(model)
        return model, sol

    def test_projection_lands_on_main_windows(self):
        model, sol = self._converged()
        projected = project_to_main_windows(sol, model)
        w_prime = model.main_windows
        for gc, val in projected.x.items():
            if val > 0:
                assert gc.window in w_prime
        for (si, w), val in projected.y.items():
            if val > 0:
                assert w in w_prime
        assert projected.objective == pytest.approx(sol.objective)
        verify_solution_rows(model, projected)

    def test_identity_when_already_on_main_windows(self):
        model, sol = self._converged()
        projected = project_to_main_windows(sol, model)
        again = project_to_main_windows(projected, model)
        assert again.x == projected.x
        assert again.y == projected.y

    def test_two_consumer_proportional_split(self):
        model = build_model(["1/2"], [4], small_sizes=["1/4"])
        model.seed_columns()
        stair = model.staircase
        cfg = Configuration((1,), model.scale // 2, 1)
        ext2 = ExtendedConfiguration(cfg, 2, stair.ks[2])
        ext3 = ExtendedConfiguration(cfg, 3, stair.ks[3])
        off = next(
            w for w in model.windows
            if w not in model.main_windows and model.usable(w)
            and main_window(ext2, model.eps, model.t_max, stair, model.scale).dominates(w)
        )
        gc2 = GeneralizedConfiguration(ext2, off)
        gc3 = GeneralizedConfiguration(ext3, off)
        model.add_column(gc2)
        model.add_column(gc3)
        si = 0
        sol, _ = solve_master(model)
        sol.x = {gc2: 2.0, gc3: 1.0}
        sol.y = {(si, off): 0.9}
        sol.objective = 2.0 * stair.f_at[2] + 1.0 * stair.f_at[3]
        projected = project_to_main_windows(sol, model)
        mw2 = main_window(ext2, model.eps, model.t_max, stair, model.scale)
        mw3 = main_window(ext3, model.eps, model.t_max, stair, model.scale)
        assert projected.x[GeneralizedConfiguration(ext2, mw2)] == pytest.approx(2.0)
        assert projected.x[GeneralizedConfiguration(ext3, mw3)] == pytest.approx(1.0)
        got2 = projected.y.get((si, mw2), 0.0)
        got3 = projected.y.get((si, mw3), 0.0)
        if mw2 == mw3:
            assert got2 == pytest.approx(0.9)
        else:
            assert got2 == pytest.approx(0.9 * 2 / 3)
            assert got3 == pytest.approx(0.9 * 1 / 3)
        assert (si, off) not in projected.y


class TestExtractBasic:
    def test_already_basic_unchanged(self):
        model = build_model(["1/2"], [6])
        sol, _ = column_generation(model)
        projected = project_to_main_windows(sol, model)
        basic = extract_basic(projected, model)
        assert basic.objective <= projected.objective + 1e-9

    def test_midpoint_of_two_bases_resolves_to_vertex(self):
        model = build_model(["1/2"], [4], q=4)
        sol, _ = column_generation(model)
        projected = project_to_main_windows(sol, model)
        w_prime = model.main_windows
        # blur the solution: split mass across two equivalent columns
        items = sorted(projected.x.items())
        gc0, v0 = items[0]
        other = next(
            (gc for gc in model.columns if gc != gc0 and gc.window in w_prime),
            None,
        )
        if other is not None:
            projected.x = dict(projected.x)
            projected.x[gc0] = v0 / 2
            projected.x[other] = projected.x.get(other, 0.0) + v0 / 2
        basic = extract_basic(projected, model)
        fx, fy = basic.fractional_counts()
        assert fx + fy <= len(model.sizes) + 2 * len(w_prime)

    def test_fractional_count_bound_random(self):
        rng = random.Random(23)
        for _ in range(6):
            sizes = sorted(
                {Fraction(rng.randint(5, 12), 12) for _ in range(rng.randint(1, 3))},
                reverse=True,
            )
            demands = [rng.randint(1, 4) for _ in sizes]
            smalls = [
                Fraction(rng.randint(1, 3), 12) for _ in range(rng.randint(0, 3))
            ]
            model = build_model(sizes, demands, small_sizes=smalls, q=rng.choice([1, 2]))
            sol, _ = column_generation(model)
            projected = project_to_main_windows(sol, model)
            w_prime = model.main_windows
            basic = extract_basic(projected, model)
            assert basic.objective <= projected.objective + 1e-6
            fx, fy = basic.fractional_counts()
            assert fx + fy <= len(model.sizes) + 2 * len(w_prime)
            verify_solution_rows(model, basic)


class TestSplitTypes:
    def test_small_types_group_equal_sizes(self):
        types = small_types([9, 5, 5, 3, 5, 3], [1, 2, 3, 4, 5])
        assert [(st.size, st.items) for st in types] == [(5, (1, 2, 4)), (3, (3, 5))]

    def test_items_fill_windows_in_order(self):
        model = build_model(["1/2"], [2], small_sizes=["1/6"] * 4)
        (st,) = model.smalls
        assert st.items == (100, 101, 102, 103)
        w1, w2 = sorted(w for w in model.windows if model.usable(w))[:2]
        got = split_types({(0, w2): 2.5, (0, w1): 1.5}, model)
        assert got == {
            (100, w1): 1.0,
            (101, w1): 0.5,
            (101, w2): 0.5,
            (102, w2): 1.0,
            (103, w2): 1.0,
        }
        sol = LpSolution(0.0, {}, {}, {}, {}, {}, {}, assignment=got)
        assert sol.fractional_counts() == (0, 1)

    def test_snapping_and_surplus_mass(self):
        model = build_model(["1/2"], [2], small_sizes=["1/6"] * 3)
        w1, w2, w3 = sorted(w for w in model.windows if model.usable(w))[:3]
        # 2 - 1e-9 snaps to 2; the 1.5 beyond the count of 3 is dropped
        got = split_types({(0, w1): 2 - 1e-9, (0, w2): 1.0 + 1e-9, (0, w3): 1.5}, model)
        assert got == {(100, w1): 1.0, (101, w1): 1.0, (102, w2): 1.0}


def _loop_arrays(model: LpModel, window_filter=None):
    """The master assembled column by column, as before the array build;
    kept as the reference for LpModel.arrays.  Only windows some small item
    fits get rows."""
    windows = [
        w
        for w in model.windows
        if model.usable(w) and (window_filter is None or w in window_filter)
    ]
    nv, ns = len(model.sizes), len(model.smalls)
    w_row = {w: nv + ns + 2 * i for i, w in enumerate(windows)}
    x_cols = [gc for gc in model.columns if window_filter is None or gc.window in window_filter]
    y_cols = [(si, w) for si, w in model.y_pairs if window_filter is None or w in window_filter]
    ncols = len(x_cols) + len(y_cols)
    A = np.zeros((nv + ns + 2 * len(windows), ncols), dtype=np.float64)
    c = np.zeros(ncols, dtype=np.float64)
    b = np.zeros(A.shape[0], dtype=np.float64)
    b[:nv] = model.demands
    b[nv : nv + ns] = [len(st.items) for st in model.smalls]
    for j, (si, w) in enumerate(y_cols):
        A[nv + si, j] += 1.0
        A[w_row[w], j] -= float(Fraction(model.smalls[si].size, model.scale))
        A[w_row[w] + 1, j] -= 1.0
    off = len(y_cols)
    for j, gc in enumerate(x_cols):
        c[off + j] = model.staircase.f_at[gc.ext.p]
        A[:nv, off + j] = gc.ext.config.counts
        if gc.window in w_row:
            A[w_row[gc.window], off + j] += float(gc.window.w)
            A[w_row[gc.window] + 1, off + j] += gc.window.kappa
    return c, A, b, x_cols, y_cols, windows


class TestArraysMatchColumnLoop:
    def _assert_same(self, model, window_filter=None):
        got = model.arrays() if window_filter is None else model.arrays(window_filter)
        want = _loop_arrays(model, window_filter)
        for g, w in zip(got[:3], want[:3]):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert got[3:] == want[3:]

    def test_seeded_models_with_kept_smalls(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(8):
            sizes = sorted(
                {Fraction(rng.randint(5, 12), 12) for _ in range(rng.randint(1, 3))},
                reverse=True,
            )
            demands = [rng.randint(1, 4) for _ in sizes]
            smalls = [Fraction(rng.randint(1, 5), 24) for _ in range(rng.randint(1, 4))]
            model = build_model(sizes, demands, small_sizes=smalls, q=rng.choice([1, 2, 3]))
            model.seed_columns()
            self._assert_same(model)
            sol, _ = column_generation(model)
            self._assert_same(model)
            project_to_main_windows(sol, model)
            self._assert_same(model)
            self._assert_same(model, model.main_windows)
            some = {w for w in model.windows if rng.random() < 0.5}
            self._assert_same(model, some)
            self._assert_same(model, set())
            checked += len(model.y_pairs) > 0 and len(model.columns) > len(sizes)
        assert checked > 0

    def test_without_smalls_or_columns(self):
        model = build_model(["3/5", "1/2"], [2, 3])
        self._assert_same(model)
        model.seed_columns()
        self._assert_same(model)
        self._assert_same(model, set(model.main_windows))


def _seeded_masters(seed, count):
    """Masters after column generation and projection, with kept smalls."""
    rng = random.Random(seed)
    for _ in range(count):
        sizes = sorted(
            {Fraction(rng.randint(5, 12), 12) for _ in range(rng.randint(1, 3))},
            reverse=True,
        )
        demands = [rng.randint(1, 4) for _ in sizes]
        smalls = [Fraction(rng.randint(1, 5), 24) for _ in range(rng.randint(0, 4))]
        model = build_model(sizes, demands, small_sizes=smalls, q=rng.choice([1, 2, 3]))
        sol, _ = column_generation(model)
        yield model, project_to_main_windows(sol, model)


class TestColumnIdentity:
    @staticmethod
    def old_key(gc):
        """The earlier column key: counts, level, then every window field."""
        w = gc.window
        return (gc.ext.config.counts, gc.ext.p, (w.t, w.a, w.w, w.kappa))

    def test_sorted_columns_follow_the_old_key(self):
        seen = 0
        for model, projected in _seeded_masters(37, 8):
            cols = model.columns
            assert sorted(cols) == sorted(cols, key=self.old_key)
            assert [gc for gc, _ in sorted(projected.x.items())] == sorted(
                projected.x, key=self.old_key
            )
            for a in cols:
                for b in cols:
                    assert (a == b) == (self.old_key(a) == self.old_key(b))
            seen += len(cols)
        assert seen > 100

    def test_rebuilt_column_is_a_duplicate(self):
        model, _ = next(_seeded_masters(41, 1))
        for gc in list(model.columns):
            cfg, w = gc.ext.config, gc.window
            twin = GeneralizedConfiguration(
                ExtendedConfiguration(
                    Configuration(tuple(cfg.counts), Fraction(cfg.total_size), cfg.n_items),
                    gc.ext.p,
                    gc.ext.k_p,
                ),
                type(w)(w.t, w.a, Fraction(w.w), w.kappa),
            )
            assert twin == gc and hash(twin) == hash(gc)
            assert not model.add_column(twin)

    def test_weak_duality_violation_raises(self, monkeypatch):
        from concavebp.errors import InvariantError

        monkeypatch.setattr("concavebp.lp.dual_objective", lambda model, sol: sol.objective + 1.0)
        model = build_model(["1/2"], [6], q=4)
        with pytest.raises(InvariantError, match="weak duality violated"):
            column_generation(model)

    def test_violated_rows_raise(self):
        from concavebp.errors import InvariantError

        model, projected = next(_seeded_masters(43, 1))
        projected.x = {}
        with pytest.raises(InvariantError, match="size row"):
            verify_solution_rows(model, projected)


def _random_master(rng, with_smalls):
    sizes = sorted(
        {Fraction(rng.randint(5, 12), 12) for _ in range(rng.randint(1, 3))},
        reverse=True,
    )
    demands = [rng.randint(1, 4) for _ in sizes]
    smalls = [Fraction(rng.randint(1, 5), 24) for _ in range(rng.randint(1, 6) * with_smalls)]
    return build_model(sizes, demands, small_sizes=smalls, q=rng.choice([1, 2, 3]))


def _host(model, labels):
    """(window, True when its count row binds) for the window whose empty
    configuration is basic, or None."""
    nv, ns = len(model.sizes), len(model.smalls)
    for i, w in enumerate(model.row_windows):
        row = nv + ns + 2 * i
        if labels[row][0] == "x" or labels[row + 1][0] == "x":
            return w, labels[row + 1][0] == "x"
    return None


class TestSeedBasis:
    """The crash basis of the seeded master loads as it is (no fallback to
    the slack start), is primal feasible, and leads to the cold start's
    optimum."""

    def _check(self, model):
        labels = model.seed_columns()
        c, A, b, *_ = model.arrays()
        state = _State(A, b)
        assert state.load_basis(_labels_to_indices(labels, A.shape[1], A.shape[0]))
        assert state.xb().min() >= -1e-12
        warm, cold = solve_lp(c, A, b, basis=labels), solve_lp(c, A, b)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=0.0)
        return labels, state

    def test_without_kept_smalls(self):
        rng = random.Random(81)
        for _ in range(10):
            model = _random_master(rng, with_smalls=False)
            labels, _ = self._check(model)
            # singletons on the size rows, every other row on its surplus
            nv = len(model.sizes)
            assert all(kind == "x" for kind, _ in labels[:nv])
            assert all(kind == "s" for kind, _ in labels[nv:])

    def test_with_kept_smalls(self):
        rng = random.Random(82)
        hosts = set()
        for _ in range(25):
            model = _random_master(rng, with_smalls=True)
            labels, _ = self._check(model)
            host = _host(model, labels)
            assert host is not None
            hosts.add(host[1])
            # each type is on its assignment column to the host window
            ns = len(model.smalls)
            picked = [model.y_pairs[j] for _, j in labels[len(model.sizes) :][:ns]]
            assert picked == [(si, host[0]) for si in range(ns)]
        assert hosts == {False, True}  # both a size row and a count row bind

    def test_count_row_binds(self):
        # forty items of 1/1000: the count bound, not the size, sets the level
        model = build_model(["1/2"], [2], small_sizes=["1/1000"] * 40, n=60)
        host = _host(model, self._check(model)[0])
        assert host is not None and host[1]

    def test_size_row_binds(self):
        # four items just below 1/3: the size bound sets the level
        model = build_model(["1/2"], [2], small_sizes=["7/24"] * 4, n=60)
        host = _host(model, self._check(model)[0])
        assert host is not None and not host[1]

    def _with_singleton_on(self, model, w):
        """Put size 0's seed singleton on window w, as if its main window
        reserved room there."""
        plain = model.singleton_column
        def singleton(j):
            gc = plain(j)
            return GeneralizedConfiguration(gc.ext, w) if j == 0 else gc
        model.singleton_column = singleton

    def test_window_a_singleton_already_covers(self):
        # one item of 1/6 fits under the singleton's window share: the host
        # needs no level, so both its rows stay on their surpluses
        model = build_model(["1/2"], [4], small_sizes=["1/6"])
        w = min(
            (w for w in model.windows if model.usable(w) and w.a <= model.p_max),
            key=lambda w: model.staircase.f_at[w.a],
        )
        self._with_singleton_on(model, w)
        labels, _ = self._check(model)
        assert _host(model, labels) is None
        assert labels[len(model.sizes)] == ("x", model.y_pairs.index((0, w)))

    def test_window_a_singleton_partly_covers(self):
        # the singleton's share counts against the host's need: the host
        # keeps its window, at the lower level the rest of the smalls need
        for k in range(8, 15):
            smalls = ["1/6"] * k + ["1/8"] * (k // 3)
            plain = build_model(["1/2"], [1], small_sizes=smalls, n=40)
            w, _ = _host(plain, plain.seed_columns())
            model = build_model(["1/2"], [1], small_sizes=smalls, n=40)
            self._with_singleton_on(model, w)
            labels, state = self._check(model)
            assert _host(model, labels)[0] == w
            total = k / 6 + (k // 3) / 8
            need = max((total - float(w.w)) / float(w.w), (len(smalls) - w.kappa) / w.kappa)
            col = len(model.y_pairs) + model.columns.index(model.empty_column(w))
            level = state.xb()[labels.index(("x", col))]
            assert need > 0 and level == pytest.approx(need, rel=1e-12)

    def test_seeding_twice_adds_nothing(self):
        rng = random.Random(83)
        for with_smalls in (False, True):
            for _ in range(5):
                model = _random_master(rng, with_smalls)
                labels = model.seed_columns()
                assert len(labels) == len(model.arrays()[2])  # one label per row
                columns = list(model.columns)
                assert model.seed_columns() == labels
                assert model.columns == columns
