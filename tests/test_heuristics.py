import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavebp import (
    Instance,
    best_fit,
    eval_cost,
    exact_opt,
    first_fit,
    lower_bound_fk,
    make_fq,
    match_half,
    next_fit,
    nfd,
    nfi,
    overflowed_packing,
    pi_sequence,
    verify_packing,
    weight,
)
from concavebp.heuristics import _is_pi_minus_one
from conftest import brute_force_matching, random_consecutive_packing, random_instance


class TestPiSequence:
    def test_first_terms(self):
        assert pi_sequence(4) == [2, 3, 7, 43]

    def test_single_term(self):
        assert pi_sequence(1) == [2]

    def test_recurrence_continues(self):
        assert pi_sequence(5) == [2, 3, 7, 43, 1807]

    def test_growth_guard(self):
        with pytest.raises(ValueError):
            pi_sequence(64)


class TestWeight:
    def test_above_half(self):
        assert weight(Fraction(3, 5)) == 1

    def test_third_band(self):
        assert weight(Fraction(2, 5)) == Fraction(1, 2)

    def test_generic_band_scales(self):
        assert weight(Fraction(3, 10)) == Fraction(4, 3) * Fraction(3, 10)

    def test_zero(self):
        assert weight(0) == 0

    def test_band_membership(self):
        # k = 6 comes from the sequence (7 - 1), k = 4 and 5 do not
        assert weight(Fraction(1, 6)) == Fraction(1, 6)
        assert weight(Fraction(1, 4)) == Fraction(5, 16)
        assert _is_pi_minus_one(6)
        assert not _is_pi_minus_one(4)
        assert not _is_pi_minus_one(5)
        assert _is_pi_minus_one(42)

    def test_monotone_on_random_points(self):
        rng = random.Random(2)
        pts = sorted(Fraction(rng.randint(0, 720), 720) for _ in range(200))
        ws = [weight(p) for p in pts]
        for a, b in zip(ws, ws[1:]):
            assert b >= a


class TestFitHeuristics:
    def test_nfd_splits_smalls_around_large(self):
        # one item of 3/4 and eight of 1/16: decreasing next-fit fills 5 then 4
        inst = Instance.from_values([Fraction(3, 4)] + [Fraction(1, 16)] * 8)
        p = nfd(inst)
        assert sorted(len(b) for b in p.bins) == [4, 5]
        assert eval_cost(make_fq(4, 9), p) == 8.0

    def test_nfi_same_instance_two_bins(self):
        inst = Instance.from_values([Fraction(3, 4)] + [Fraction(1, 16)] * 8)
        p = nfi(inst)
        assert p.num_bins == 2

    def test_single_item(self):
        inst = Instance.from_values([Fraction(1, 2)])
        for heur in (nfi, nfd, match_half):
            assert heur(inst).num_bins == 1

    def test_first_fit_decreasing_reproduces_spread_packing(self):
        K = 4
        inst = Instance.from_values(
            [Fraction(K - 1, K)] * K + [Fraction(1, K * K)] * (K * K)
        )
        p = first_fit(inst, "decreasing")
        assert p.num_bins == K
        assert sorted(len(b) for b in p.bins) == [K + 1] * K

    def test_best_fit_tracks_first_fit_here(self):
        rng = random.Random(9)
        for _ in range(20):
            inst = random_instance(rng, max_n=15)
            for order in ("increasing", "decreasing"):
                for heur in (first_fit, best_fit, next_fit):
                    p = heur(inst, order)
                    assert verify_packing(inst, p).ok

    def test_unknown_order_rejected(self):
        inst = Instance.from_values([Fraction(1, 2)])
        with pytest.raises(ValueError):
            next_fit(inst, "sideways")


class TestMatchHalf:
    def test_four_large_four_small(self):
        inst = Instance.from_values([Fraction(3, 4)] * 4 + [Fraction(1, 4)] * 4)
        p = match_half(inst)
        assert verify_packing(inst, p).ok
        assert eval_cost(make_fq(1, 8), p) == 5.0
        pair_bins = [b for b in p.bins if len(b) == 2 and any(i < 4 for i in b)]
        assert len(pair_bins) == 2  # half of the large items get matched

    def test_no_large_items_equals_nfi(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(1, 15)
            inst = Instance.from_values(
                [Fraction(rng.randint(1, 32), 64) for _ in range(n)]
            )
            assert match_half(inst).bins == nfi(inst).bins

    def test_infeasible_edge_drops_small(self):
        inst = Instance.from_values([Fraction(3, 4), Fraction(3, 10)])
        p = match_half(inst)
        assert p.num_bins == 2
        assert all(len(b) == 1 for b in p.bins)

    def test_matches_at_most_half_and_pairs_fit(self):
        rng = random.Random(21)
        for _ in range(40):
            inst = random_instance(rng, max_n=18)
            t = sum(1 for s in inst.sizes if s > Fraction(1, 2))
            p = match_half(inst)
            assert verify_packing(inst, p).ok
            pairs = [
                b
                for b in p.bins
                if len(b) == 2
                and sum(1 for i in b if inst.sizes[i] > Fraction(1, 2)) == 1
            ]
            matched_large = sum(
                1 for b in pairs for i in b if inst.sizes[i] > Fraction(1, 2)
            )
            assert matched_large <= (t + 1) // 2
            for b in p.bins:
                assert sum((inst.sizes[i] for i in b), Fraction(0)) <= 1

    def test_greedy_matching_weight_is_optimal(self):
        # the greedy two-queue matching must reach the brute-force optimum
        from concavebp.heuristics import greedy_half_matching

        rng = random.Random(33)
        for _ in range(60):
            t = rng.randint(1, 7)
            n_small = rng.randint(0, 7)
            larges = [Fraction(rng.randint(33, 64), 64) for _ in range(t)]
            smalls = [Fraction(rng.randint(0, 32), 64) for _ in range(n_small)]
            inst = Instance.from_values(larges + smalls)
            pairs = greedy_half_matching(inst)
            m0_sizes = [inst.sizes[i] for i in range(t - (t + 1) // 2, t)]
            small_sizes = [inst.sizes[i] for i in range(t, t + n_small)]
            w = [weight(s) for s in small_sizes]
            best = brute_force_matching(m0_sizes, small_sizes, w)
            got = sum((weight(inst.sizes[j]) for _i, j in pairs), Fraction(0))
            assert got == best


class TestOverflowed:
    def test_three_items_of_point_six(self):
        inst = Instance.from_values([Fraction(3, 5)] * 3)
        part = overflowed_packing(inst)
        assert [len(b) for b in part.bins] == [2, 1]
        assert not part.feasible

    def test_single_full_item(self):
        inst = Instance.from_values([Fraction(1)])
        assert [len(b) for b in overflowed_packing(inst).bins] == [1]

    def test_small_items_then_large(self):
        inst = Instance.from_values([Fraction(3, 4)] + [Fraction(1, 16)] * 8)
        part = overflowed_packing(inst)
        assert [len(b) for b in part.bins] == [9]

    def test_lower_bound_examples(self):
        inst = Instance.from_values([Fraction(3, 5)] * 3)
        assert lower_bound_fk(inst, 1) == 2.0

    def test_lower_bound_cap_two_mixed_instance(self):
        # prefixes: four 1/4 items reach 1.0, the first 3/4 closes the bin at
        # 1.75; two more 3/4 close the next at 1.5; one remains: cards {5,2,1}
        inst = Instance.from_values([Fraction(3, 4)] * 4 + [Fraction(1, 4)] * 4)
        assert [len(b) for b in overflowed_packing(inst).bins] == [5, 2, 1]
        assert lower_bound_fk(inst, 2) == 5.0  # f_2: 2 + 2 + 1

    def test_closed_bins_exceed_capacity(self):
        # every closed overflowed bin has total > 1, so with m bins the total
        # size exceeds m - 1; for the unit cost that means lb - 1 < total
        rng = random.Random(8)
        for _ in range(30):
            inst = random_instance(rng, max_n=30)
            part = overflowed_packing(inst)
            for b in part.bins[:-1]:
                assert sum((inst.sizes[i] for i in b), Fraction(0)) > 1
            lb = lower_bound_fk(inst, 1)
            assert lb - 1 < inst.total_size

    def test_lower_bound_below_exact(self):
        rng = random.Random(13)
        for _ in range(25):
            inst = random_instance(rng, max_n=9)
            for k in (1, 2, 3):
                f = make_fq(k, max(inst.n, 1))
                _, opt = exact_opt(inst, f)
                assert lower_bound_fk(inst, k) <= opt + 1e-9


class TestHeuristicRelations:
    def test_unit_cost_nfi_equals_nfd(self):
        rng = random.Random(55)
        for _ in range(60):
            inst = random_instance(rng, max_n=60, allow_zero=True)
            assert nfi(inst).num_bins == nfd(inst).num_bins

    def test_weight_sum_bounds_unit_cost(self):
        rng = random.Random(56)
        for _ in range(60):
            inst = random_instance(rng, max_n=60)
            total_weight = sum((weight(s) for s in inst.sizes), Fraction(0))
            assert total_weight >= nfi(inst).num_bins - 3

    def test_nfi_beats_consecutive_packings_under_caps(self):
        rng = random.Random(57)
        for _ in range(40):
            inst = random_instance(rng, max_n=25)
            p = nfi(inst)
            for k in (1, 2, 3, 5):
                f = make_fq(k, max(inst.n, 1))
                nfi_cost = eval_cost(f, p)
                for _ in range(5):
                    bins = random_consecutive_packing(rng, inst)
                    other = sum(f.value(len(b)) for b in bins)
                    assert nfi_cost <= other + 1e-9

    def test_match_half_ratio_bound_small(self):
        rng = random.Random(58)
        for _ in range(15):
            inst = random_instance(rng, max_n=12)
            _, opt = exact_opt(inst, make_fq(1, max(inst.n, 1)))
            assert match_half(inst).num_bins <= 1.5 * opt + 3 + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=5000))
def test_weight_at_least_size(p):
    # every band multiplies the size by at least 1, so weights dominate sizes
    assert weight(p) >= p
