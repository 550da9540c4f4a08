import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavebp import lp, make_fq, run_afptas
from concavebp.errors import InfeasibleMasterError, InvariantError
from concavebp.generators import mixed
from concavebp.lp import (
    FRACTIONAL_TOL,
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
from concavebp.serialize import parse_cost_spec
from concavebp.simplex import FEAS_TOL, _labels_to_indices, _State, certify, solve_lp
from concavebp.structures import (
    Configuration,
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
    cost=None,
):
    sizes = tuple(Fraction(s) for s in sizes)
    small = tuple(Fraction(s) for s in small_sizes)
    scale = math.lcm(*(s.denominator for s in sizes + small))
    int_sizes = tuple(int(s * scale) for s in sizes)
    small_ints = {100 + i: int(s * scale) for i, s in enumerate(small)}
    f = make_fq(q, n) if cost is None else parse_cost_spec(cost, n)
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
                mains.add(main_window(cfg, p, eps, t_star + 1, stair, scale))
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
        gc = GeneralizedConfiguration(
            mixed, 3, main_window(mixed, 3, model.eps, model.t_max, model.staircase, model.scale)
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
        assert len(sol.duals) == len(model.arrays()[2])  # one per row
        assert np.all(sol.duals >= 0.0)


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
            nv = len(model.sizes)
            alpha, beta = sol.duals[:nv], sol.duals[nv : nv + len(model.smalls)]
            for gc in model.columns:
                w = gc.window
                gamma, delta = _window_duals(model, sol, w)
                value = (
                    sum(n * a for n, a in zip(gc.config.counts, alpha))
                    + w.w * gamma
                    + w.kappa * delta
                )
                assert model.staircase.f_at[gc.p] - value >= -1e-7
            pairs = _pairs(model)
            for si, w in pairs:
                size = model.smalls[si].size / model.scale
                gamma, delta = _window_duals(model, sol, w)
                value = beta[si] - size * gamma - delta
                assert -value >= -1e-7
            checked += len(model.columns) + len(pairs)
        assert checked >= 1000

    def test_sifted_master_matches_every_pair_master(self):
        # concave tables make the column generation pivot, and pairs enter
        # after seeding; the final master then prices every pair out, so it
        # reaches the optimum of the master holding every pair over the same
        # configurations, solved cold
        rng = random.Random(5)
        entered = 0
        for _ in range(20):
            sizes = sorted(
                {Fraction(rng.randint(5, 12), 12) for _ in range(rng.randint(1, 3))},
                reverse=True,
            )
            demands = [rng.randint(1, 4) for _ in sizes]
            smalls = [Fraction(rng.randint(1, 5), 24) for _ in range(rng.randint(1, 6))]
            vals, step = [0.0, 1.0], 1.0
            for _ in range(rng.randint(2, 5)):
                step = round(step * rng.uniform(0.3, 1.0), 2)
                vals.append(round(vals[-1] + step, 2))
            cost = "table:" + ",".join(map(str, vals))
            model = build_model(sizes, demands, small_sizes=smalls, cost=cost)
            sol, info = column_generation(model)
            entered += info.pairs_entered > 0
            c, A, b, *_ = _loop_arrays(model, every_pair=True)
            full = solve_lp(c, A, b)
            assert full.status == "optimal"
            assert sol.objective == pytest.approx(full.objective, rel=1e-9, abs=1e-9)
            verify_solution_rows(model, sol)
        assert entered >= 3


def _pairs(model: LpModel) -> list:
    """Every candidate (small type, window) pair, in pair order."""
    return [
        (si, model.row_windows[i])
        for si, i in zip(model._y_type.tolist(), model._y_window.tolist())
    ]


def _is_pair(key) -> bool:
    """A master key is a (small type, window) pair or a configuration; both
    are tuples, so the configuration is the one told by its class."""
    return not isinstance(key, GeneralizedConfiguration)


def _entered(model: LpModel) -> list[int]:
    """The candidate pairs that are master columns, in pair order."""
    return np.flatnonzero(model._y_at >= 0).tolist()


def _window_duals(model: LpModel, sol, w) -> tuple[float, float]:
    """(gamma_w, delta_w) of a master solution, read off the rows of window
    w; a window no small item fits has no rows, so no duals, which reads
    as 0."""
    if w not in model.row_index:
        return 0.0, 0.0
    row = len(model.sizes) + len(model.smalls) + 2 * model.row_index[w]
    return sol.duals[row], sol.duals[row + 1]


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
    probe.enter(range(len(_pairs(probe))))
    configs = enumerate_configurations(
        list(model.sizes), list(model.demands), model.eps.denominator, model.scale
    )
    for cfg in configs:
        for p in range(1, model.p_max + 1):
            if cfg.n_items > model.staircase.ks[p]:
                continue
            mw = main_window(cfg, p, model.eps, model.t_max, model.staircase, model.scale)
            for w in model.windows:
                if mw.dominates(w):
                    probe.add_column(GeneralizedConfiguration(cfg, p, w))
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

    def test_projection_enters_the_pairs_it_fills(self):
        # mass moved onto a main window's pair is a master column afterwards,
        # so extract_basic's program holds the projected solution
        rng = random.Random(1)
        entered = 0
        for _ in range(40):
            model = _random_master(rng, with_smalls=True)
            sol, _ = column_generation(model)
            before = len(_entered(model))
            projected = project_to_main_windows(sol, model)
            entered += len(_entered(model)) > before
            cols = set(model.arrays(model.main_windows)[3])
            assert all(key in cols for key, val in projected.y.items() if val > 0)
            assert extract_basic(projected, model).objective <= projected.objective + 1e-6
        assert entered > 0

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
        mw2 = main_window(cfg, 2, model.eps, model.t_max, stair, model.scale)
        mw3 = main_window(cfg, 3, model.eps, model.t_max, stair, model.scale)
        off = next(
            w for w in model.windows
            if w not in model.main_windows and model.usable(w) and mw2.dominates(w)
        )
        gc2 = GeneralizedConfiguration(cfg, 2, off)
        gc3 = GeneralizedConfiguration(cfg, 3, off)
        model.add_column(gc2)
        model.add_column(gc3)
        si = 0
        sol, _ = solve_master(model)
        sol.x = {gc2: 2.0, gc3: 1.0}
        sol.y = {(si, off): 0.9}
        sol.objective = 2.0 * stair.f_at[2] + 1.0 * stair.f_at[3]
        projected = project_to_main_windows(sol, model)
        assert projected.x[GeneralizedConfiguration(cfg, 2, mw2)] == pytest.approx(2.0)
        assert projected.x[GeneralizedConfiguration(cfg, 3, mw3)] == pytest.approx(1.0)
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

    def test_midpoint_of_two_bases_resolves_to_vertex(self, monkeypatch):
        # a support outside the master's basis still gets the rank test
        ranks = []
        plain = np.linalg.matrix_rank
        monkeypatch.setattr(
            np.linalg, "matrix_rank", lambda *a, **k: ranks.append(1) or plain(*a, **k)
        )
        model = build_model(["1/2"], [4], q=4)
        sol, _ = column_generation(model)
        projected = project_to_main_windows(sol, model)
        w_prime = model.main_windows
        # blur the solution: split its one column's mass with an equal
        # column a level up on the same window, which is not basic
        ((gc0, v0),) = projected.x.items()
        other = GeneralizedConfiguration(gc0.config, gc0.p + 1, gc0.window)
        model.add_column(other)
        projected.x = {gc0: v0 / 2, other: v0 / 2}
        basic = extract_basic(projected, model)
        assert ranks
        assert basic.objective <= projected.objective + 1e-9
        assert sum(val > FRACTIONAL_TOL for val in basic.x.values()) == 1
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
        # item 100 is whole in w1, 102 and 103 in w2; 101 straddles the two
        assert got == {(0, w1): (0.0, 1.5), (0, w2): (1.5, 4.0)}
        sol = LpSolution(0.0, {}, {}, np.zeros(0), assignment=got)
        assert sol.fractional_counts() == (0, 1)

    def test_snapping_and_surplus_mass(self):
        model = build_model(["1/2"], [2], small_sizes=["1/6"] * 3)
        w1, w2, w3 = sorted(w for w in model.windows if model.usable(w))[:3]
        # 2 - 1e-9 snaps to 2; the 1.5 beyond the count of 3 is clipped to
        # an empty stretch
        got = split_types({(0, w1): 2 - 1e-9, (0, w2): 1.0 + 1e-9, (0, w3): 1.5}, model)
        assert got == {(0, w1): (0.0, 2.0), (0, w2): (2.0, 3.0), (0, w3): (3.0, 3.0)}
        sol = LpSolution(0.0, {}, {}, np.zeros(0), assignment=got)
        assert sol.fractional_counts() == (0, 0)


def _loop_arrays(model: LpModel, window_filter=None, every_pair=False):
    """The master assembled column by column, as before the array build;
    kept as the reference for LpModel.arrays.  Only windows some small item
    fits get rows.  Columns are the configurations and the entered pairs,
    at their positions in the model's column store, which the per-key
    registries must agree with.  With ``every_pair``, every candidate pair
    is a column, ahead of the configurations: the master as it was before
    assignment columns were sifted."""
    windows = [
        w
        for w in model.windows
        if model.usable(w) and (window_filter is None or w in window_filter)
    ]
    nv, ns = len(model.sizes), len(model.smalls)
    w_row = {w: nv + ns + 2 * i for i, w in enumerate(windows)}
    pairs = _pairs(model)
    if every_pair:
        master = pairs + model.columns
    else:
        master = list(model._keys)
        assert all(master[j] == gc for gc, j in model._position.items())
        assert all(master[model._y_at[p]] == pairs[p] for p in _entered(model))
        assert len(master) == len(model._position) + len(_entered(model))
    cols = [
        key
        for key in master
        if window_filter is None or (key[1] if _is_pair(key) else key.window) in window_filter
    ]
    A = np.zeros((nv + ns + 2 * len(windows), len(cols)), dtype=np.float64)
    c = np.zeros(len(cols), dtype=np.float64)
    b = np.zeros(A.shape[0], dtype=np.float64)
    b[:nv] = model.demands
    b[nv : nv + ns] = [len(st.items) for st in model.smalls]
    for j, key in enumerate(cols):
        if _is_pair(key):
            si, w = key
            A[nv + si, j] += 1.0
            A[w_row[w], j] -= float(Fraction(model.smalls[si].size, model.scale))
            A[w_row[w] + 1, j] -= 1.0
            continue
        c[j] = model.staircase.f_at[key.p]
        A[:nv, j] = key.config.counts
        if key.window in w_row:
            A[w_row[key.window], j] += key.window.w
            A[w_row[key.window] + 1, j] += key.window.kappa
    return c, A, b, cols


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
            checked += len(_pairs(model)) > 0 and len(model.columns) > len(sizes)
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
        return (gc.config.counts, gc.p, (w.t, w.a, w.w, w.kappa))

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
            cfg, w = gc.config, gc.window
            twin = GeneralizedConfiguration(
                Configuration(tuple(cfg.counts), Fraction(cfg.total_size), cfg.n_items),
                gc.p,
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
    configuration is basic, or None.  Assignment columns basic on idle
    windows are not it."""
    nv, ns = len(model.sizes), len(model.smalls)
    cols = model.arrays()[3]
    for i, w in enumerate(model.row_windows):
        row = nv + ns + 2 * i
        for binds_count, (kind, j) in enumerate(labels[row : row + 2]):
            if kind == "x" and not _is_pair(cols[j]):
                return w, bool(binds_count)
    return None


class TestSeedBasis:
    """The crash basis of the seeded master has full rank, loads as it is
    (no fallback to the slack start), is primal feasible, and leads to the
    cold start's optimum.  Where it is optimal as it is, its closed-form
    vertex is the simplex's and passes the certificate."""

    def _check(self, model):
        """(labels, loaded state, whether the seed vertex was certified)."""
        seed = model.seed_columns()
        labels = seed.labels
        c, A, b, cols = model.arrays()
        state = _State(A, b)
        indices = _labels_to_indices(labels, A.shape[1], A.shape[0])
        assert np.linalg.matrix_rank(state._basis_matrix(indices)) == A.shape[0]
        assert state.load_basis(indices)
        assert state.xb().min() >= -1e-12
        warm, cold = solve_lp(c, A, b, basis=labels), solve_lp(c, A, b)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=0.0)
        certified = warm.iterations == 0
        if certified:
            np.testing.assert_allclose(seed.x, warm.x, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(seed.duals, warm.duals, rtol=1e-9, atol=1e-9)
            assert certify(c, A, b, seed.x, seed.duals)
        self._check_idle_windows(model, labels, cols)
        # the master holds exactly the seed basis's assignment columns
        basic = {cols[j] for kind, j in labels if kind == "x" and _is_pair(cols[j])}
        pairs = _pairs(model)
        entered = {pairs[p] for p in _entered(model)}
        assert entered == basic == {key for key in cols if _is_pair(key)}
        # no candidate assignment column, entered or not, prices below zero
        # under the seed basis: rc(s, w) = size_s gamma_w + delta_w - beta_s
        duals = np.concatenate([c, np.zeros(A.shape[0])])[state.basis] @ state.binv
        nv, ns = len(model.sizes), len(model.smalls)
        for si, w in pairs:
            row = nv + ns + 2 * model.row_windows.index(w)
            size = model.smalls[si].size / model.scale
            assert size * duals[row] + duals[row + 1] - duals[nv + si] >= -1e-9
        return labels, state, certified

    def _check_idle_windows(self, model, labels, cols):
        """Each idle window (every window with rows but the host) has exactly
        one assignment column of its own basic on one of its rows."""
        nv, ns = len(model.sizes), len(model.smalls)
        if not ns:
            return  # no small items, so no host and no idle window
        host = cols[labels[nv][1]][1]
        for i, w in enumerate(model.row_windows):
            if w == host:
                continue
            on = [j for kind, j in labels[nv + ns + 2 * i : nv + ns + 2 * i + 2] if kind == "x"]
            assert len(on) == 1 and _is_pair(cols[on[0]]) and cols[on[0]][1] == w

    def test_without_kept_smalls(self):
        rng = random.Random(81)
        for _ in range(10):
            model = _random_master(rng, with_smalls=False)
            labels, _, certified = self._check(model)
            assert certified
            # singletons on the size rows, every other row on its surplus
            nv = len(model.sizes)
            assert all(kind == "x" for kind, _ in labels[:nv])
            assert all(kind == "s" for kind, _ in labels[nv:])

    def test_with_kept_smalls(self):
        rng = random.Random(82)
        hosts, certified = set(), 0
        for _ in range(25):
            model = _random_master(rng, with_smalls=True)
            labels, _, zero_pivots = self._check(model)
            certified += zero_pivots
            host = _host(model, labels)
            assert host is not None
            hosts.add(host[1])
            # each type is on its assignment column to the host window
            ns, cols = len(model.smalls), model.arrays()[3]
            picked = [cols[j] for _, j in labels[len(model.sizes) :][:ns]]
            assert picked == [(si, host[0]) for si in range(ns)]
        assert hosts == {False, True}  # both a size row and a count row bind
        assert certified > 0

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

    def test_no_host_raises(self):
        # every usable window has a > p_max, so no window has an empty seed
        # configuration to host the smalls; the scheme never builds such a
        # model, and seeding it is an invariant failure
        base = build_model(["1/2"], [2], small_sizes=["1/12", "1/8"], q=3, delta_cap=1)
        windows = tuple(w for w in base.windows if not base.usable(w) or w.a > base.p_max)
        model = dataclasses.replace(base, windows=windows)
        assert model.row_windows and model.p_max == 1
        with pytest.raises(InvariantError, match="hosts the small items"):
            model.seed_columns()

    def test_failed_certificate_falls_back_to_the_simplex(self, monkeypatch):
        # a tampered dual fails the certificate: the first master solve runs
        # the simplex warm from the seed labels and reaches the cold optimum
        honest = LpModel.seed_columns

        def tampered(model):
            seed = honest(model)
            duals = seed.duals.copy()
            duals[0] = -1.0
            return dataclasses.replace(seed, duals=duals)

        simplex_calls = []
        plain = lp.solve_lp

        def counted(*args, **kwargs):
            simplex_calls.append(kwargs.get("basis"))
            return plain(*args, **kwargs)

        monkeypatch.setattr(lp, "solve_lp", counted)
        rng = random.Random(84)
        for with_smalls in (False, True, True, True):
            model = _random_master(rng, with_smalls)
            seed = tampered(model)
            c, A, b, *_ = model.arrays()
            assert not certify(c, A, b, seed.x, seed.duals)
            simplex_calls.clear()
            sol, res = solve_master(model, seed.labels, seed)
            assert not res.certified and simplex_calls == [seed.labels]
            assert sol.objective == pytest.approx(plain(c, A, b).objective, rel=1e-9, abs=1e-12)
            # through column generation: the same optimum as the honest seed's
            with monkeypatch.context() as patch:
                patch.setattr(LpModel, "seed_columns", tampered)
                fell_back, info = column_generation(dataclasses.replace(model))
            assert not info.seed_certified
            certified, info = column_generation(dataclasses.replace(model))
            assert info.seed_certified
            assert fell_back.objective == pytest.approx(certified.objective, rel=1e-9)

    def test_seeding_twice_adds_nothing(self):
        rng = random.Random(83)
        for with_smalls in (False, True):
            for _ in range(5):
                model = _random_master(rng, with_smalls)
                seed = model.seed_columns()
                assert len(seed.labels) == len(model.arrays()[2])  # one label per row
                columns = list(model.columns)
                again = model.seed_columns()
                assert again.labels == seed.labels
                assert np.array_equal(again.x, seed.x)
                assert np.array_equal(again.duals, seed.duals)
                assert model.columns == columns


@st.composite
def concave_table_specs(draw):
    """``table:`` specs with f(1) = 1 and non-increasing increments (in
    hundredths, so that the values print exactly)."""
    steps = draw(st.lists(st.integers(0, 100), min_size=1, max_size=8))
    vals = [0, 100]
    for step in sorted(steps, reverse=True):
        vals.append(vals[-1] + step)
    return "table:" + ",".join(str(v / 100) for v in vals)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(20, 120),
    seed=st.integers(0, 10**6),
    denominator=st.sampled_from([10**3, 10**6]),
    k=st.integers(3, 6),
    spec=concave_table_specs(),
    windowed=st.booleans(),
)
def test_seed_invariants_of_the_scheme(n, seed, denominator, k, spec, windowed):
    # seed_columns relies on these for every master the scheme builds: no
    # singleton's window has rows, a window with a <= p_max can host the
    # smalls, and the closed-form seed vertex is primal feasible
    inst = mixed(n, seed, denominator)
    seeds = []
    honest = LpModel.seed_columns

    def recorded(model):
        seed_vertex = honest(model)
        seeds.append((model, seed_vertex, model.arrays()))
        return seed_vertex

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LpModel, "seed_columns", recorded)
        run_afptas(inst, parse_cost_spec(spec, n), Fraction(1, k), h_eps=k if windowed else None)
    assert seeds
    for model, seed_vertex, (c, A, b, *_) in seeds:
        for j in range(len(model.sizes)):
            assert model.singleton_column(j).window not in model.row_index
        assert any(w.a <= model.p_max for w in model.row_windows)
        assert seed_vertex.x.shape == c.shape
        assert np.all(seed_vertex.x >= 0.0)
        assert np.all(A @ seed_vertex.x >= b - FEAS_TOL)
