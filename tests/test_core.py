import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavebp import (
    FractionalPacking,
    Instance,
    Packing,
    embed_fractional,
    eval_cost,
    eval_fractional_cost,
    eval_fractional_f,
    make_cost_function,
    make_fq,
    verify_packing,
)
from concavebp.core import _verify_integral
from conftest import (
    random_concave_cost,
    random_consecutive_packing,
    random_instance,
    reference_verify_integral,
)


class TestMakeCostFunction:
    def test_capped_linear_table_is_valid(self):
        f = make_cost_function([0, 1, 2, 2, 2])
        assert f.values == (0.0, 1.0, 2.0, 2.0, 2.0)
        assert not f.normalized

    def test_unit_cost_table(self):
        f = make_cost_function([0, 1, 1, 1])
        assert f.values == (0.0, 1.0, 1.0, 1.0)

    def test_rejects_convex_table(self):
        with pytest.raises(ValueError, match="concave"):
            make_cost_function([0, 1, 3, 4])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="decreases"):
            make_cost_function([0, 1, 0.5])

    def test_rejects_nonzero_origin(self):
        with pytest.raises(ValueError, match="f\\(0\\)"):
            make_cost_function([1, 2, 3])

    def test_rejects_zero_at_one_with_positive_later(self):
        with pytest.raises(ValueError):
            make_cost_function([0, 0, 1])

    def test_rescales_when_f1_not_one(self):
        f = make_cost_function([0, 2, 4, 4])
        assert f.normalized and f.scale == 2.0
        assert f.values == (0.0, 1.0, 2.0, 2.0)

    def test_tolerance_applies_after_normalization(self):
        # within 1e-9 of concave and non-decreasing as given, but convex and
        # decreasing once divided by f(1) = 1e-12
        with pytest.raises(ValueError, match="not concave at 1"):
            make_cost_function([0, 1e-12, 3e-12, 6e-12])
        with pytest.raises(ValueError, match="decreases at 2"):
            make_cost_function([0, 1e-12, 5e-13])
        # off by 1e-3 as given, by 1e-15 once normalized
        f = make_cost_function([0, 1e12, 2e12, 3e12 + 1e-3])
        assert f.normalized and f.scale == 1e12
        assert f.values == (0.0, 1.0, 2.0, (3e12 + 1e-3) / 1e12)

    def test_negative_f1_is_a_decrease(self):
        for f1 in (-1.0, -1e-12):
            with pytest.raises(ValueError, match="decreases at 1"):
                make_cost_function([0, f1, 2 * f1])

    def test_all_zero_table_allowed(self):
        f = make_cost_function([0, 0, 0])
        assert f.values == (0.0, 0.0, 0.0)


class TestMakeFq:
    def test_q2_n5(self):
        assert make_fq(2, 5).values == (0.0, 1.0, 2.0, 2.0, 2.0, 2.0)

    def test_q1_is_unit_cost(self):
        assert make_fq(1, 3).values == (0.0, 1.0, 1.0, 1.0)

    def test_cap_beyond_table(self):
        assert make_fq(4, 3).values == (0.0, 1.0, 2.0, 3.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_fq(0, 3)
        with pytest.raises(ValueError):
            make_fq(1, 0)


class TestEvalCost:
    def test_capped_cost_of_two_bins(self):
        inst = Instance.from_values([Fraction(1, 4)] * 4)
        f = make_fq(2, 4)
        p = Packing.from_bins([[0, 1, 2], [3]], range(4))
        assert eval_cost(f, p) == 3.0

    def test_empty_packing_costs_zero(self):
        f = make_fq(3, 5)
        assert eval_cost(f, Packing.from_bins([], ())) == 0.0

    def test_cap_four_bins_of_five_and_four(self):
        f = make_fq(4, 9)
        p = Packing.from_bins([[0, 1, 2, 3, 4], [5, 6, 7, 8]], range(9))
        assert eval_cost(f, p) == 8.0

    def test_bins_past_the_table_cost_its_last_entry(self):
        # f is flat past its table: a bin of more items than the table has
        # entries costs the last one
        f = make_fq(2, 3)
        p = Packing.from_bins([[0, 1, 2, 3, 4], [5], [6, 7, 8, 9]], range(10))
        assert eval_cost(f, p) == 5.0


class TestEvalFractionalF:
    def test_unit_cost_interpolation(self):
        f = make_fq(1, 5)
        assert eval_fractional_f(f, Fraction(4, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_integer_points_exact(self):
        f = make_fq(3, 6)
        for q in range(7):
            assert eval_fractional_f(f, q) == f.value(q)
        assert eval_fractional_f(f, Fraction(5)) == f.value(5)

    def test_cap_two_interpolation(self):
        f = make_fq(2, 5)
        assert eval_fractional_f(f, Fraction(5, 3)) == pytest.approx(5 / 3, abs=1e-12)

    def test_constant_beyond_table(self):
        f = make_fq(2, 4)
        assert eval_fractional_f(f, 17.5) == 2.0

    def test_grid_monotone_and_concave_random_tables(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 12)
            f = random_concave_cost(rng, n)
            grid = [Fraction(i, 4) for i in range(4 * n + 1)]
            vals = [eval_fractional_f(f, q) for q in grid]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-9
            for a, b, c in zip(vals, vals[1:], vals[2:]):
                assert (c - b) - (b - a) <= 1e-9


class TestEvalFractionalCost:
    def test_unit_cost_fraction_sums(self):
        inst = Instance.from_values([Fraction(3, 5)] * 3)
        f = make_fq(1, 3)
        p = FractionalPacking.from_bins(
            [
                [(2, Fraction(1)), (1, Fraction(2, 3))],
                [(1, Fraction(1, 3)), (0, Fraction(1))],
            ],
            range(3),
        )
        assert eval_fractional_cost(f, p) == pytest.approx(2.0, abs=1e-12)

    def test_embedding_matches_integral_cost(self):
        rng = random.Random(11)
        for _ in range(30):
            inst = random_instance(rng, max_n=12)
            f = random_concave_cost(rng, inst.n)
            bins = []
            cur: list[int] = []
            load = Fraction(0)
            for i in range(inst.n):
                if load + inst.sizes[i] > 1:
                    bins.append(cur)
                    cur, load = [], Fraction(0)
                cur.append(i)
                load += inst.sizes[i]
            bins.append(cur)
            p = Packing.from_bins(bins, range(inst.n))
            assert eval_fractional_cost(f, embed_fractional(p)) == eval_cost(f, p)

    def test_linear_cost_counts_items(self):
        n = 6
        inst = Instance.from_values([Fraction(1, 7)] * n)
        f = make_fq(n, n)  # linear over the whole range
        p = FractionalPacking.from_bins(
            [[(i, Fraction(1, 2)) for i in range(n)], [(i, Fraction(1, 2)) for i in range(n)]],
            range(n),
        )
        assert eval_fractional_cost(f, p) == pytest.approx(float(n), abs=1e-9)


class TestConcavityDominatesLinear:
    def test_f_of_z_at_most_z_times_f1(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_concave_cost(rng, rng.randint(1, 15))
            for z in range(1, f.n + 1):
                assert f.value(z) <= z * f.value(1) + 1e-9


class TestVerifyPacking:
    def test_overfull_bin_reported(self):
        inst = Instance.from_values([Fraction(3, 5)] * 3)
        p = Packing.from_bins([[0], [1, 2]], range(3))
        verdict = verify_packing(inst, p)
        assert not verdict.ok
        assert any(v.kind == "overfull" and v.where == 1 for v in verdict.violations)

    def test_missing_item_reported(self):
        inst = Instance.from_values([Fraction(1, 2)] * 2)
        p = Packing(((0,),), frozenset({0, 1}))
        verdict = verify_packing(inst, p)
        assert any(v.kind == "missing" for v in verdict.violations)

    def test_valid_packing_passes(self):
        inst = Instance.from_values([Fraction(1, 2), Fraction(1, 4)])
        assert verify_packing(inst, Packing.from_bins([[0, 1]], range(2))).ok

    def test_duplicate_item_reported(self):
        inst = Instance.from_values([Fraction(1, 4)] * 2)
        p = Packing(((0, 1), (0,)), frozenset({0, 1}))
        assert any(
            v.kind == "duplicate" for v in verify_packing(inst, p).violations
        )

    def test_fraction_sum_violation(self):
        inst = Instance.from_values([Fraction(1, 2)])
        p = FractionalPacking(
            (((0, Fraction(1, 2)),),), frozenset({0})
        )
        assert any(
            v.kind == "fraction-sum" for v in verify_packing(inst, p).violations
        )

    def test_two_parts_in_one_bin_reported(self):
        inst = Instance.from_values([Fraction(1, 2)])
        p = FractionalPacking(
            (((0, Fraction(1, 2)), (0, Fraction(1, 2))),), frozenset({0})
        )
        assert any(
            v.kind == "split-in-bin" for v in verify_packing(inst, p).violations
        )

    def test_mutations_of_valid_packings_are_caught(self):
        rng = random.Random(17)
        for _ in range(40):
            inst = random_instance(rng, max_n=10)
            bins: list[list[int]] = []
            cur: list[int] = []
            load = Fraction(0)
            for i in range(inst.n):
                if load + inst.sizes[i] > 1:
                    bins.append(cur)
                    cur, load = [], Fraction(0)
                cur.append(i)
                load += inst.sizes[i]
            bins.append(cur)
            assert verify_packing(inst, Packing.from_bins(bins, range(inst.n))).ok
            mutation = rng.choice(["drop", "dup"])
            mutated = [list(b) for b in bins]
            if mutation == "drop" and inst.n:
                victim = rng.randrange(inst.n)
                mutated = [[i for i in b if i != victim] for b in mutated]
            else:
                mutated.append([rng.randrange(inst.n)])
            verdict = verify_packing(
                inst, Packing(tuple(tuple(b) for b in mutated if b), frozenset(range(inst.n)))
            )
            assert not verdict.ok


def _corrupt(rng: random.Random, inst: Instance) -> Packing:
    """A packing of ``inst`` with a few random faults: duplicated, missing,
    undeclared and unknown items, and merged (likely overfull) bins."""
    bins = random_consecutive_packing(rng, inst)
    declared = set(range(inst.n))
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["duplicate", "missing", "undeclared", "unknown", "merge"])
        if kind == "duplicate":
            rng.choice(bins).append(rng.randrange(inst.n))
        elif kind == "missing":
            b = rng.choice(bins)
            if b:
                b.remove(rng.choice(b))
        elif kind == "undeclared":
            declared.discard(rng.randrange(inst.n))
        elif kind == "unknown":
            rng.choice(bins).append(rng.choice([-1, inst.n, inst.n + 7]))
        elif len(bins) > 1:
            a = bins.pop(rng.randrange(len(bins)))
            rng.choice(bins).extend(a)
    rng.shuffle(bins)
    return Packing(tuple(tuple(b) for b in bins), frozenset(declared))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(1, 40))
def test_integral_verifier_matches_reference(seed, n):
    # the same violations, in the same order, as the loop it replaced
    rng = random.Random(seed)
    inst = random_instance(rng, n)
    p = _corrupt(rng, inst)
    assert _verify_integral(inst, p) == reference_verify_integral(inst, p)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=50),
        min_size=0,
        max_size=12,
    )
)
def test_instance_sorts_and_validates(sizes):
    inst = Instance.from_values(sizes)
    assert sorted(inst.sizes, reverse=True) == list(inst.sizes)
    assert inst.n == len(sizes)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=10),
    st.fractions(min_value=0, max_value=20, max_denominator=30),
)
def test_fractional_extension_between_table_values(increments, q):
    incs = sorted(increments, reverse=True)
    vals = [0.0]
    for d in incs:
        vals.append(vals[-1] + d)
    f = make_cost_function(vals)
    lo = f.value(math.floor(q))
    hi = f.value(min(math.floor(q) + 1, f.n))
    got = eval_fractional_f(f, q)
    assert lo - 1e-9 <= got <= hi + 1e-9
