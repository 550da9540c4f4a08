import random
from fractions import Fraction

import pytest

from concavebp import (
    Instance,
    exact_opt,
    make_fq,
    run_afptas,
    verify_packing,
)
from concavebp.afptas import round_solution
from concavebp.lp import LpModel, LpSolution, SmallItem
from concavebp.structures import (
    Configuration,
    ExtendedConfiguration,
    GeneralizedConfiguration,
    build_staircase,
    build_windows,
    linear_grouping,
    main_window,
    round_size_to_power,
)
from conftest import random_concave_cost, random_instance


class TestRunBasics:
    def test_tiny_instance_packs_singletons(self):
        inst = Instance.from_values([Fraction(1, 2)] * 3)
        res = run_afptas(inst, make_fq(1, 3), Fraction(1, 3))
        assert res.provenance.base_case
        assert res.packing.num_bins == 3

    def test_empty_instance(self):
        res = run_afptas(Instance.from_values([]), make_fq(1, 1), Fraction(1, 3))
        assert res.packing.num_bins == 0

    def test_eps_validation(self):
        inst = Instance.from_values([Fraction(1, 2)] * 4)
        with pytest.raises(ValueError):
            run_afptas(inst, make_fq(1, 4), Fraction(1, 2))
        with pytest.raises(ValueError):
            run_afptas(inst, make_fq(1, 4), Fraction(2, 7))

    def test_h_eps_validation(self):
        inst = Instance.from_values([Fraction(1, 2)] * 4 + [Fraction(1, 8)] * 4)
        with pytest.raises(ValueError):
            run_afptas(inst, make_fq(1, 8), Fraction(1, 3), h_eps=2)

    def test_rejects_unnormalized_table(self):
        from concavebp import CostFunction

        inst = Instance.from_values([Fraction(1, 2)] * 4)
        bad = CostFunction((0.0, 2.0, 4.0, 4.0, 4.0))
        with pytest.raises(ValueError):
            run_afptas(inst, bad, Fraction(1, 3))

    def test_no_small_items_delta_defaults(self):
        inst = Instance.from_values([Fraction(1, 2)] * 8)
        res = run_afptas(inst, make_fq(2, 8), Fraction(1, 3))
        p = res.provenance
        assert not p.lp_skipped
        assert p.delta == "3"
        assert verify_packing(inst, res.packing).ok

    def test_largest_class_goes_to_singletons(self):
        sizes = [Fraction(500 + i, 1400) for i in range(30)]
        inst = Instance.from_values(sizes)
        res = run_afptas(inst, make_fq(3, 30), Fraction(1, 3))
        p = res.provenance
        assert p.l1_size == 2
        assert p.stages[0].name == "largest-class singletons"
        assert p.stages[0].bins == 2


class TestStructuralInvariants:
    def test_random_runs_verify_and_respect_bounds(self):
        rng = random.Random(101)
        for _ in range(12):
            inst = random_instance(rng, n=rng.randint(4, 40), max_n=40)
            n = inst.n
            f = (
                make_fq(rng.randint(1, n), n)
                if rng.random() < 0.5
                else random_concave_cost(rng, n)
            )
            eps = Fraction(1, rng.choice([3, 4]))
            res = run_afptas(inst, f, eps)
            p = res.provenance
            assert verify_packing(inst, res.packing).ok
            if p.base_case or p.lp_skipped:
                continue
            one_plus = 1 + Fraction(1, eps.denominator)
            assert p.lp_max_ratio <= float(one_plus) + 1e-9
            assert p.lp_certified_ratio <= float(one_plus) + 1e-9
            assert p.fractional_x + p.fractional_y <= p.fractional_bound
            for rec in p.config_bins:
                assert rec["cost"] <= float(one_plus) * rec["f_k_p"] + 1e-9

    def test_forced_small_path_verifies(self):
        rng = random.Random(102)
        for _ in range(8):
            smalls = [
                Fraction(rng.randint(1, 19), 60) for _ in range(rng.randint(28, 40))
            ]
            larges = [
                Fraction(rng.randint(20, 60), 60) for _ in range(rng.randint(0, 5))
            ]
            inst = Instance.from_values(smalls + larges)
            f = make_fq(rng.randint(1, 8), inst.n)
            res = run_afptas(inst, f, Fraction(1, 3), h_eps=3)
            assert verify_packing(inst, res.packing).ok

    def test_lp_objective_against_reduced_instance_optimum(self):
        rng = random.Random(103)
        checked = 0
        for _ in range(15):
            inst = random_instance(rng, n=rng.randint(4, 12), max_n=12)
            f = random_concave_cost(rng, inst.n)
            res = run_afptas(inst, f, Fraction(1, 3))
            p = res.provenance
            if p.base_case or p.lp_skipped or not p.i2_sizes:
                continue
            reduced = Instance.from_values([Fraction(s) for s in p.i2_sizes])
            from concavebp import CostFunction

            f2 = CostFunction(f.values[: reduced.n + 1], f.normalized, f.scale)
            _, opt = exact_opt(reduced, f2)
            assert p.lp_objective <= (1 + 1 / 3) ** 2 * opt + 1e-6
            checked += 1
        assert checked >= 5


def _rounding_fixture(large_size, n_large, small_size, n_small, n, q=1):
    """Build instance, model, grouping for hand-driven rounding tests."""
    eps = Fraction(1, 3)
    sizes = [Fraction(large_size)] * n_large + [Fraction(small_size)] * n_small
    inst = Instance.from_values(sizes)
    assert inst.n == n_large + n_small
    f = make_fq(q, max(n, inst.n))
    stair = build_staircase(f, eps, max(n, inst.n))
    grouping = linear_grouping(inst, eps)
    small_items = tuple(
        SmallItem(i, inst.sizes[i]) for i in range(n_large, inst.n)
    )
    s_min_small, t_star = round_size_to_power(eps, Fraction(small_size))
    windows = build_windows(eps, s_min_small, stair)
    model = LpModel(
        sizes=(Fraction(large_size),),
        demands=(n_large,),
        smalls=small_items,
        windows=tuple(windows),
        staircase=stair,
        p_max=stair.ell,
        eps=eps,
        s_min_small=s_min_small,
        t_max=t_star + 1,
        f=f,
    )
    return inst, f, grouping, model, stair


def _solution(model, columns_with_values, assignments):
    return LpSolution(
        objective=sum(
            model.staircase.f_at[gc.ext.p] * v for gc, v in columns_with_values
        ),
        x=dict(columns_with_values),
        y={(si, w): 1.0 for si, w in assignments},
        alpha={},
        beta={},
        gamma={},
        delta={},
    )


class TestRoundSolution:
    def test_round_robin_loads_three_two_two(self):
        inst, f, grouping, model, stair = _rounding_fixture(
            "1/2", 3, "1/10", 7, n=10
        )
        cfg = Configuration((1,), Fraction(1, 2), 1)
        ext = ExtendedConfiguration(cfg, stair.ell, stair.ks[stair.ell])
        mw = main_window(ext, model.eps, model.t_max, stair)
        gc = GeneralizedConfiguration(ext, mw)
        model.add_column(gc)
        sol = _solution(model, [(gc, 3.0)], [(si, mw) for si in range(7)])
        outcome = round_solution(sol, model, grouping, inst)
        # pre-removal loads are 3/2/2 small items; one is removed per bin
        assert sorted(rec["items"] for rec in outcome.config_records) == [2, 2, 3]
        assert outcome.removed_bins == 1
        assert outcome.special_bins == 0 and outcome.excess_bins == 0
        placed = [i for b in outcome.bins for i in b]
        assert sorted(placed) == list(range(10))

    def test_integral_solution_needs_no_dedicated_bins(self):
        inst, f, grouping, model, stair = _rounding_fixture("1/2", 2, "1/10", 0, n=8)
        cfg = Configuration((2,), Fraction(1), 2)
        ext = ExtendedConfiguration(cfg, 2, stair.ks[2])
        mw = main_window(ext, model.eps, model.t_max, stair)
        gc = GeneralizedConfiguration(ext, mw)
        model.add_column(gc)
        sol = _solution(model, [(gc, 1.0)], [])
        outcome = round_solution(sol, model, grouping, inst)
        assert outcome.dedicated_small == 0
        assert len(outcome.bins) == 1 and sorted(outcome.bins[0]) == [0, 1]

    def test_fractional_assignment_gets_dedicated_bin(self):
        inst, f, grouping, model, stair = _rounding_fixture("1/2", 1, "1/10", 2, n=8)
        cfg = Configuration((1,), Fraction(1, 2), 1)
        ext = ExtendedConfiguration(cfg, stair.ell, stair.ks[stair.ell])
        mw = main_window(ext, model.eps, model.t_max, stair)
        gc = GeneralizedConfiguration(ext, mw)
        model.add_column(gc)
        sol = _solution(model, [(gc, 1.0)], [(0, mw)])
        sol.y[(1, mw)] = 0.5  # second item fractionally assigned
        outcome = round_solution(sol, model, grouping, inst)
        assert outcome.dedicated_small == 1
        placed = sorted(i for b in outcome.bins for i in b)
        assert placed == [0, 1, 2]

    def test_special_item_splits_off(self):
        # window size 0.5625 exceeds the real free space 0.4375, so a crafted
        # assignment overflows: one special item, the rest excess
        inst, f, grouping, model, stair = _rounding_fixture(
            "9/16", 1, "7/625", 50, n=51
        )
        cfg = Configuration((1,), Fraction(9, 16), 1)
        ext = ExtendedConfiguration(cfg, stair.ell, stair.ks[stair.ell])
        mw = main_window(ext, model.eps, model.t_max, stair)
        assert mw.w == Fraction(9, 16)
        gc = GeneralizedConfiguration(ext, mw)
        model.add_column(gc)
        sol = _solution(model, [(gc, 1.0)], [(si, mw) for si in range(50)])
        outcome = round_solution(sol, model, grouping, inst)
        assert outcome.special_bins == 1
        assert outcome.excess_bins == 1
        assert outcome.removed_bins == 1
        placed = sorted(i for b in outcome.bins for i in b)
        assert placed == list(range(51))
        for b in outcome.bins:
            assert sum((inst.sizes[i] for i in b), Fraction(0)) <= 1
