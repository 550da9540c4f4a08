import random
from fractions import Fraction

import numpy as np
import pytest

from concavebp import make_fq
from concavebp.errors import InfeasibleMasterError
from concavebp.lp import (
    LpModel,
    SmallItem,
    column_generation,
    dual_objective,
    extract_basic,
    project_to_main_windows,
    solve_master,
    verify_solution_rows,
)
from concavebp.simplex import solve_lp
from concavebp.structures import (
    Configuration,
    ExtendedConfiguration,
    GeneralizedConfiguration,
    build_staircase,
    build_windows,
    enumerate_configurations,
    main_window,
    round_size_to_power,
)


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
    s_min_small, t_star = round_size_to_power(eps, s_min)
    p_max = next(
        (p for p, kp in enumerate(stair.ks) if kp >= delta), stair.ell
    )
    windows = build_windows(eps, s_min_small, stair)
    model = LpModel(
        sizes=sizes,
        demands=tuple(demands),
        smalls=tuple(SmallItem(100 + i, s) for i, s in enumerate(small)),
        windows=tuple(windows),
        staircase=stair,
        p_max=p_max,
        eps=eps,
        s_min_small=s_min_small,
        t_max=t_star + 1,
        f=f,
    )
    # register the full set of canonical windows, as the pipeline does
    for cfg in enumerate_configurations(list(sizes), list(demands), eps.denominator):
        for p in range(1, p_max + 1):
            if cfg.n_items <= stair.ks[p]:
                ext = ExtendedConfiguration(cfg, p, stair.ks[p])
                model.main_windows.add(main_window(ext, eps, model.t_max, stair))
    return model


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
        mixed = Configuration((1, 2), Fraction(1), 3)
        ext = ExtendedConfiguration(mixed, 3, model.staircase.ks[3])
        gc = GeneralizedConfiguration(
            ext, main_window(ext, model.eps, model.t_max, model.staircase)
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
                value = (
                    sum(n * sol.alpha[v] for n, v in zip(gc.ext.config.counts, model.sizes))
                    + float(w.w) * sol.gamma[w]
                    + w.kappa * sol.delta[w]
                )
                assert model.staircase.f_at[gc.ext.p] - value >= -1e-7
            for si, w in model.y_pairs:
                item = model.smalls[si]
                value = sol.beta[item.index] - float(item.size) * sol.gamma[w] - sol.delta[w]
                assert -value >= -1e-7
            checked += len(model.columns) + len(model.y_pairs)
        assert checked >= 1000


def _solve_full_program(model: LpModel) -> float:
    """Optimum over every valid generalized configuration, built explicitly."""
    probe = LpModel(
        sizes=model.sizes,
        demands=model.demands,
        smalls=model.smalls,
        windows=model.windows,
        staircase=model.staircase,
        p_max=model.p_max,
        eps=model.eps,
        s_min_small=model.s_min_small,
        t_max=model.t_max,
        f=model.f,
    )
    probe.main_windows = set(model.main_windows)
    configs = enumerate_configurations(
        list(model.sizes), list(model.demands), model.eps.denominator
    )
    for cfg in configs:
        for p in range(1, model.p_max + 1):
            if cfg.n_items > model.staircase.ks[p]:
                continue
            ext = ExtendedConfiguration(cfg, p, model.staircase.ks[p])
            mw = main_window(ext, model.eps, model.t_max, model.staircase)
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
        projected, w_prime = project_to_main_windows(sol, model)
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
        projected, w_prime = project_to_main_windows(sol, model)
        again, _ = project_to_main_windows(projected, model)
        assert again.x == projected.x
        assert again.y == projected.y

    def test_two_consumer_proportional_split(self):
        model = build_model(["1/2"], [4], small_sizes=["1/4"])
        model.seed_columns()
        stair = model.staircase
        cfg = Configuration((1,), Fraction(1, 2), 1)
        ext2 = ExtendedConfiguration(cfg, 2, stair.ks[2])
        ext3 = ExtendedConfiguration(cfg, 3, stair.ks[3])
        off = next(
            w for w in model.windows
            if w not in model.main_windows and w.kappa >= 1 and w.w >= model.s_min_small
            and main_window(ext2, model.eps, model.t_max, stair).dominates(w)
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
        projected, _ = project_to_main_windows(sol, model)
        mw2 = main_window(ext2, model.eps, model.t_max, stair)
        mw3 = main_window(ext3, model.eps, model.t_max, stair)
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
        projected, w_prime = project_to_main_windows(sol, model)
        basic = extract_basic(projected, model, w_prime)
        assert basic.objective <= projected.objective + 1e-9

    def test_midpoint_of_two_bases_resolves_to_vertex(self):
        model = build_model(["1/2"], [4], q=4)
        sol, _ = column_generation(model)
        projected, w_prime = project_to_main_windows(sol, model)
        # blur the solution: split mass across two equivalent columns
        items = sorted(projected.x.items(), key=lambda kv: model.column_key(kv[0]))
        gc0, v0 = items[0]
        other = next(
            (gc for gc in model.columns if gc != gc0 and gc.window in w_prime),
            None,
        )
        if other is not None:
            projected.x = dict(projected.x)
            projected.x[gc0] = v0 / 2
            projected.x[other] = projected.x.get(other, 0.0) + v0 / 2
        basic = extract_basic(projected, model, w_prime)
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
            projected, w_prime = project_to_main_windows(sol, model)
            basic = extract_basic(projected, model, w_prime)
            assert basic.objective <= projected.objective + 1e-6
            fx, fy = basic.fractional_counts()
            assert fx + fy <= len(model.sizes) + 2 * len(w_prime)
            verify_solution_rows(model, basic)
