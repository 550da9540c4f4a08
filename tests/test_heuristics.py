import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavebp import (
    Instance,
    Packing,
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
from concavebp.heuristics import _is_pi_minus_one, _ordered_indices
from conftest import brute_force_matching, random_consecutive_packing, random_instance

ORDERS = ("increasing", "decreasing", "given")


# Reference oracles: the direct scans over Fraction loads that next_fit,
# first_fit and best_fit must reproduce bin for bin.


def reference_next_fit(inst: Instance, order: str) -> Packing:
    bins: list[list[int]] = []
    load = Fraction(2)  # force a fresh bin on the first item
    for i in _ordered_indices(inst, order):
        s = inst.sizes[i]
        if load + s <= 1:
            bins[-1].append(i)
            load += s
        else:
            bins.append([i])
            load = s
    return Packing.from_bins(bins, range(inst.n))


def reference_first_fit(inst: Instance, order: str) -> Packing:
    bins: list[list[int]] = []
    loads: list[Fraction] = []
    for i in _ordered_indices(inst, order):
        s = inst.sizes[i]
        for b, load in enumerate(loads):
            if load + s <= 1:
                bins[b].append(i)
                loads[b] += s
                break
        else:
            bins.append([i])
            loads.append(s)
    return Packing.from_bins(bins, range(inst.n))


def reference_best_fit(inst: Instance, order: str) -> Packing:
    bins: list[list[int]] = []
    loads: list[Fraction] = []
    for i in _ordered_indices(inst, order):
        s = inst.sizes[i]
        best = -1
        for b, load in enumerate(loads):
            if load + s <= 1 and (best < 0 or load > loads[best]):
                best = b
        if best < 0:
            bins.append([i])
            loads.append(s)
        else:
            bins[best].append(i)
            loads[best] += s
    return Packing.from_bins(bins, range(inst.n))


PACKERS = [
    (next_fit, reference_next_fit),
    (first_fit, reference_first_fit),
    (best_fit, reference_best_fit),
]
PACKER_IDS = ["next_fit", "first_fit", "best_fit"]


def assert_same_bins(fast, reference, inst: Instance) -> None:
    for order in ORDERS:
        assert fast(inst, order) == reference(inst, order), (order, inst.sizes)


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

    def test_fit_heuristics_pack_feasibly(self):
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


@pytest.mark.parametrize("fast, reference", PACKERS, ids=PACKER_IDS)
class TestFitMatchesReference:
    """The integer-load packers place every item in the same bin as the
    Fraction scans they replaced."""

    def test_seeded_random_instances(self, fast, reference):
        rng = random.Random(41)
        for _ in range(150):
            inst = random_instance(
                rng, max_n=80, denominators=(6, 7, 12, 16, 1000), allow_zero=True
            )
            assert_same_bins(fast, reference, inst)

    @pytest.mark.parametrize("denominators", [(6, 7, 12), (7, 11, 13)])
    def test_mixed_denominators_in_one_instance(self, fast, reference, denominators):
        rng = random.Random(42)
        for _ in range(80):
            sizes = []
            for _ in range(rng.randint(1, 60)):
                d = rng.choice(denominators)
                sizes.append(Fraction(rng.randint(0, d), d))
            assert_same_bins(fast, reference, Instance.from_values(sizes))

    def test_edge_sizes(self, fast, reference):
        for sizes in (
            [],
            [0],
            [0] * 5,
            [1],
            [1] * 4,
            [1, 0, 1, 0, 0],
            [1, Fraction(1, 2), 0, Fraction(1, 2), 0],
            [Fraction(1, 3)] * 3 + [0] * 3,
        ):
            assert_same_bins(fast, reference, Instance.from_values(sizes))

    def test_many_equal_residuals(self, fast, reference):
        # four bins left with 2/5 each; the 1/5 items must fill the
        # lowest-indexed of the equally full bins first
        inst = Instance.from_values([Fraction(3, 5)] * 4 + [Fraction(1, 5)] * 8)
        assert_same_bins(fast, reference, inst)
        if fast is not next_fit:
            expected = ((0, 4, 5), (1, 6, 7), (2, 8, 9), (3, 10, 11))
            assert fast(inst, "decreasing").bins == expected
        rng = random.Random(43)
        for _ in range(60):
            big = [Fraction(rng.choice((1, 2, 3)), 4)] * rng.randint(1, 10)
            small = [Fraction(rng.randint(0, 2), 8)] * rng.randint(0, 36)
            assert_same_bins(fast, reference, Instance.from_values(big + small))

    def test_coprime_denominators_fill_bins_exactly(self, fast, reference):
        sizes = [Fraction(1, 7)] * 7 + [Fraction(1, 11)] * 11 + [Fraction(1, 13)] * 13
        inst = Instance.from_values(sizes)
        assert inst.scale == 7 * 11 * 13
        assert_same_bins(fast, reference, inst)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=24), max_size=40
    )
)
def test_fit_heuristics_match_reference_property(sizes):
    inst = Instance.from_values(sizes)
    for fast, reference in PACKERS:
        assert_same_bins(fast, reference, inst)


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

    def test_unsorted_instances_verify(self):
        # an Instance(...) keeps its sizes in the given order; the packing of
        # the unmatched rest must map back to the right items all the same
        bad = []
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(0, 40)
            inst = Instance(tuple(Fraction(rng.randint(0, 100), 100) for _ in range(n)))
            if not verify_packing(inst, match_half(inst)).ok:
                bad.append(seed)
        assert bad == []

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
