import math
import random
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavebp import KccInstance, KccItemType, kcc_fptas, make_fq
from concavebp.lp import LpModel
from concavebp.pricing import PricedColumn, price_all
from concavebp.structures import (
    Configuration,
    GeneralizedConfiguration,
    build_staircase,
    build_windows,
    main_window,
)
from conftest import brute_force_kcc, round_size_to_power


def _items(*triples):
    return tuple(KccItemType(Fraction(s), v, m) for s, v, m in triples)


def _duals(model, alpha, gamma, delta):
    """The master's row duals as ``LpSolution.duals`` holds them: alpha per
    size (keyed by size), beta per small type (0 here), then gamma and
    delta per row window; a key missing from a dict reads as 0."""
    duals = [alpha.get(v, 0.0) for v in model.sizes] + [0.0] * len(model.smalls)
    for w in model.row_windows:
        duals += [gamma.get(w, 0.0), delta.get(w, 0.0)]
    return np.array(duals)


class RationalKcc(NamedTuple):
    """The oracle's earlier input: Fraction sizes, a Fraction capacity and
    a strict flag."""

    items: tuple
    cardinality: int
    capacity: Fraction
    strict: bool = False


def _scaled(items, cardinality, capacity, strict=False, factor=1):
    """The rational form as integers over the sizes' common denominator
    (times ``factor``): the limit is the largest integer total within the
    capacity, strictly below it when ``strict``."""
    scale = math.lcm(*(it.size.denominator for it in items)) * factor
    cap = capacity * scale
    limit = math.ceil(cap) - 1 if strict else math.floor(cap)
    ints = tuple(KccItemType(int(it.size * scale), it.volume, it.multiplicity) for it in items)
    return KccInstance(ints, cardinality, limit)


class TestKccFptas:
    def test_two_types_cap_two(self):
        inst = KccInstance(
            (KccItemType(6, 5.0, 1), KccItemType(3, 3.0, 2)), 2, 10
        )
        counts, volume = kcc_fptas(inst, 1 / 3)
        assert volume == pytest.approx(8.0)
        assert counts == (1, 1)

    def test_cardinality_one(self):
        inst = KccInstance(
            (KccItemType(6, 5.0, 1), KccItemType(3, 3.0, 2)), 1, 10
        )
        _, volume = kcc_fptas(inst, 1 / 3)
        assert volume == pytest.approx(5.0)

    def test_zero_cardinality(self):
        inst = KccInstance((KccItemType(1, 9.0, 3),), 0, 2)
        assert kcc_fptas(inst, 1 / 3) == ((0,), 0.0)

    def test_strict_capacity_excludes_exact_fit(self):
        # two halves fill the bin: the strict bound, a limit one below it,
        # takes one
        inst = KccInstance((KccItemType(1, 4.0, 2),), 2, 1)
        counts, volume = kcc_fptas(inst, 1 / 4)
        assert sum(counts) <= 1 and volume == pytest.approx(4.0)
        loose = KccInstance((KccItemType(1, 4.0, 2),), 2, 2)
        counts2, volume2 = kcc_fptas(loose, 1 / 4)
        assert volume2 == pytest.approx(8.0) and counts2 == (2,)

    def test_rational_form_is_rescaled(self):
        # capacity plus strict flag, as Fractions, becomes the integer limit
        items = _items(("1/2", 4.0, 2), ("1/3", 1.0, 1))
        scaled = (KccItemType(3, 4.0, 2), KccItemType(2, 1.0, 1))  # over 6
        for capacity, strict, limit in (
            (Fraction(1), True, 5),
            (Fraction(1), False, 6),
            (Fraction(5, 8), True, 3),
        ):
            assert KccInstance(items, 3, capacity, strict) == KccInstance(scaled, 3, limit)
        assert KccInstance(items, 3, Fraction(1)).limit == 6  # not strict unless asked

    def test_solution_always_feasible(self):
        rng = random.Random(31)
        for _ in range(60):
            ntypes = rng.randint(1, 4)
            items = []
            total_copies = 0
            for _ in range(ntypes):
                mult = rng.randint(1, 4)
                total_copies += mult
                items.append(
                    KccItemType(
                        Fraction(rng.randint(1, 40), 40),
                        rng.choice([0.0, rng.random() * 10]),
                        mult,
                    )
                )
            cap = Fraction(rng.randint(1, 40), 40)
            strict = rng.random() < 0.5
            k = rng.randint(0, 6)
            inst = _scaled(items, k, cap, strict, factor=rng.choice([1, 3]))
            counts, volume = kcc_fptas(inst, 1 / 3)
            assert sum(counts) <= k or k == 0 and sum(counts) == 0
            total = sum((c * it.size for c, it in zip(counts, items)), Fraction(0))
            assert (total < cap) if strict else (total <= cap)
            for c, it in zip(counts, items):
                assert 0 <= c <= it.multiplicity
            assert volume == pytest.approx(
                sum(c * it.volume for c, it in zip(counts, items))
            )

    def test_approximation_guarantee_vs_brute_force(self):
        rng = random.Random(32)
        for _ in range(120):
            ntypes = rng.randint(1, 4)
            items = []
            copies = 0
            while True:
                items.clear()
                copies = 0
                for _ in range(ntypes):
                    mult = rng.randint(1, 3)
                    copies += mult
                    items.append(
                        KccItemType(
                            Fraction(rng.randint(1, 24), 24),
                            rng.random() * 5,
                            mult,
                        )
                    )
                if copies <= 9:
                    break
            cap = Fraction(rng.randint(4, 24), 24)
            strict = rng.random() < 0.3
            card = rng.randint(1, copies)
            inst = _scaled(items, card, cap, strict)
            for eps in (1 / 3, 1 / 5):
                _, volume = kcc_fptas(inst, eps)
                best = brute_force_kcc(items, card, cap, strict)
                assert volume >= (1 - eps) * best - 1e-9

    def test_guarantee_vs_brute_force_beyond_int64(self):
        # sizes over three coprime denominators near 2**21, whose LCM passes
        # 2**60: the oracle runs on Python integers (an object-dtype table)
        primes = (2097143, 2097133, 2097131)
        rng = random.Random(33)
        for _ in range(20):
            items = [
                KccItemType(Fraction(rng.randint(p // 8, p // 2), p), rng.random() * 5, rng.randint(1, 3))
                for p in primes
            ]
            cap = Fraction(rng.randint(2, 8), 8)
            strict = rng.random() < 0.5
            card = rng.randint(1, sum(it.multiplicity for it in items))
            inst = _scaled(items, card, cap, strict)
            assert inst.limit >= 2**60
            best = brute_force_kcc(items, card, cap, strict)
            for eps in (1 / 3, 1 / 5):
                counts, volume = kcc_fptas(inst, eps)
                total = sum((c * it.size for c, it in zip(counts, items)), Fraction(0))
                assert (total < cap) if strict else (total <= cap)
                assert (1 - eps) * best - 1e-9 <= volume <= best + 1e-9


class TestSharedTable:
    """One table for the largest cardinality answers every smaller one."""

    def _instance(self, rng):
        while True:
            items = [
                KccItemType(
                    Fraction(rng.randint(1, 24), 24),
                    rng.choice([0.0, rng.random() * 5, float(rng.randint(1, 3))]),
                    rng.randint(1, 3),
                )
                for _ in range(rng.randint(1, 4))
            ]
            copies = sum(it.multiplicity for it in items)
            if copies <= 9:
                break
        cap = Fraction(rng.randint(4, 24), 24)
        return items, cap, rng.random() < 0.3, copies

    def test_every_cardinality_feasible_and_within_guarantee(self):
        rng = random.Random(34)
        checked = 0
        for _ in range(120):
            items, cap, strict, copies = self._instance(rng)
            top = rng.randint(1, copies + 2)
            cards = {rng.randint(0, top) for _ in range(4)} | {top}
            inst = _scaled(items, top, cap, strict)
            for eps in (1 / 3, 1 / 5):
                answers = kcc_fptas(inst, eps, cardinalities=cards)
                assert set(answers) == cards
                for card, (counts, volume) in answers.items():
                    assert sum(counts) <= card
                    assert all(0 <= c <= it.multiplicity for c, it in zip(counts, items))
                    total = sum((c * it.size for c, it in zip(counts, items)), Fraction(0))
                    assert (total < cap) if strict else (total <= cap)
                    assert volume == sum(c * it.volume for c, it in zip(counts, items))
                    best = brute_force_kcc(items, card, cap, strict)
                    assert volume >= (1 - eps) * best - 1e-9
                    checked += card < top and best > 0
        assert checked > 100

    def test_largest_cardinality_matches_the_single_call(self):
        rng = random.Random(35)
        for _ in range(150):
            inst = _scaled(*_random_kcc(rng))
            cards = {rng.randint(0, inst.cardinality) for _ in range(3)} | {inst.cardinality}
            for eps in (1 / 3, 1 / 6):
                single = kcc_fptas(inst, eps)
                shared = kcc_fptas(inst, eps, cardinalities=cards)[inst.cardinality]
                assert shared == single
                assert shared[1].hex() == single[1].hex()

    def test_beyond_int64(self):
        # an object-dtype table (common denominator above 2**60) answers
        # every cardinality as the int64 one does
        primes = (2097143, 2097133, 2097131)
        rng = random.Random(36)
        for _ in range(10):
            items = [
                KccItemType(Fraction(rng.randint(p // 8, p // 2), p), rng.random() * 5, rng.randint(1, 3))
                for p in primes
            ]
            cap = Fraction(rng.randint(2, 8), 8)
            strict = rng.random() < 0.5
            top = sum(it.multiplicity for it in items)
            inst = _scaled(items, top, cap, strict)
            assert inst.limit >= 2**60
            answers = kcc_fptas(inst, 1 / 5, cardinalities=range(top + 1))
            assert answers[top] == kcc_fptas(inst, 1 / 5)
            for card, (counts, volume) in answers.items():
                total = sum((c * it.size for c, it in zip(counts, items)), Fraction(0))
                assert sum(counts) <= card and ((total < cap) if strict else (total <= cap))
                assert volume >= (1 - 1 / 5) * brute_force_kcc(items, card, cap, strict) - 1e-9

    def test_cardinalities_above_the_instance_are_refused(self):
        inst = KccInstance((KccItemType(2, 1.0, 3),), 2, 5)
        with pytest.raises(ValueError, match="cardinalities"):
            kcc_fptas(inst, 1 / 3, cardinalities=(1, 3))

    def test_trivial_instances_answer_every_cardinality(self):
        empty = ((0, 0), 0.0)
        for inst in (
            KccInstance((KccItemType(3, 1.0, 2), KccItemType(4, 2.0, 1)), 0, 9),
            KccInstance((KccItemType(3, 0.0, 2), KccItemType(4, 0.0, 1)), 3, 9),
            KccInstance((KccItemType(30, 1.0, 2), KccItemType(40, 2.0, 1)), 3, 9),
            KccInstance((KccItemType(30, 1.0, 2), KccItemType(40, 1.0, 1)), 3, 9),
        ):
            caps = range(inst.cardinality + 1)
            assert kcc_fptas(inst, 1 / 3, cardinalities=caps) == dict.fromkeys(caps, empty)


class TestPriceAll:
    def _context(self, sizes, mults, n=12, eps=Fraction(1, 3), s_min=Fraction(1)):
        f = make_fq(2, n)
        stair = build_staircase(f, eps, n)
        _, t_star = round_size_to_power(eps, s_min)
        windows = build_windows(eps, t_star + 1, stair)
        p_max = next(p for p, kp in enumerate(stair.ks) if kp >= eps.denominator)
        scale = math.lcm(*(Fraction(s).denominator for s in sizes))
        return LpModel(
            sizes=tuple(int(Fraction(s) * scale) for s in sizes),
            demands=tuple(mults),
            scale=scale,
            smalls=(),
            windows=tuple(windows),
            staircase=stair,
            p_max=p_max,
            eps=eps,
            t_max=t_star + 1,
            f=f,
        )

    def test_zero_duals_no_violation(self):
        ctx = self._context(["1/2", "2/5"], [3, 2])
        out = price_all(_duals(ctx, {}, {}, {}), ctx, 1 / 6)
        assert out.violations == ()
        assert out.max_ratio <= 1e-12

    def test_large_dual_triggers_violation(self):
        ctx = self._context(["1/2"], [3])
        alpha = {ctx.scale // 2: 5.0}  # exceeds every f(k_p)
        out = price_all(_duals(ctx, alpha, {}, {}), ctx, 1 / 6)
        assert out.violations
        top = out.violations[0]
        assert top.column.config.counts[0] >= 1
        assert top.ratio > 1.0

    def test_emitted_columns_are_valid(self):
        rng = random.Random(41)
        ctx = self._context(["5/8", "1/2", "2/5"], [2, 3, 4], s_min=Fraction(1, 10))
        for _ in range(15):
            alpha = {v: rng.random() * 3 for v in ctx.sizes}
            # a master has duals only for the windows with rows
            gamma = {w: rng.random() for w in ctx.row_windows}
            delta = {w: rng.random() * 0.4 for w in ctx.row_windows}
            out = price_all(_duals(ctx, alpha, gamma, delta), ctx, 1 / 6)
            for pc in out.violations:
                gen = pc.column
                mw = main_window(gen.config, gen.p, ctx.eps, ctx.t_max, ctx.staircase, ctx.scale)
                assert mw.dominates(gen.window)
                assert gen.config.n_items <= ctx.staircase.ks[gen.p]
                assert gen.config.total_size <= ctx.scale


def _uncapped_kcc_fptas(inst: RationalKcc, eps: float):
    """The oracle before its table was bounded by the capacity: up to
    min(multiplicity, cardinality) copies per type, cardinality rows, and
    sizes and capacity scaled by one common denominator that includes the
    capacity's.  Kept as the reference the bounded oracle must match."""
    ntypes = len(inst.items)
    empty = (0,) * ntypes
    if inst.cardinality <= 0 or ntypes == 0:
        return empty, 0.0

    def fits(total):
        return total < inst.capacity if inst.strict else total <= inst.capacity

    copies = []
    for ti, it in enumerate(inst.items):
        if not fits(it.size):
            continue
        copies.extend([ti] * min(it.multiplicity, inst.cardinality))
    if not copies:
        return empty, 0.0
    k_eff = min(inst.cardinality, len(copies))
    p_max = max(inst.items[ti].volume for ti in copies)
    if p_max <= 0.0:
        return empty, 0.0
    mu = eps * p_max / k_eff

    denom = reduce(math.lcm, (it.size.denominator for it in inst.items), 1)
    denom = math.lcm(denom, inst.capacity.denominator)
    cap_int = int(inst.capacity * denom)
    size_int = [int(it.size * denom) for it in inst.items]
    inf = cap_int + 1
    dtype = np.int64 if cap_int < 2**60 else object

    q_of = [int(inst.items[ti].volume / mu) for ti in copies]
    q_total = sum(sorted(q_of, reverse=True)[:k_eff])
    g = np.full((k_eff + 1, q_total + 1), inf, dtype=dtype)
    g[0, 0] = 0
    took = np.zeros((len(copies), k_eff + 1, q_total + 1), dtype=bool)
    for j, ti in enumerate(copies):
        q = q_of[j]
        s = size_int[ti]
        cand = g[:-1, : g.shape[1] - q] + s
        target = g[1:, q:]
        better = cand < target
        if better.any():
            target[better] = cand[better]
            took[j, 1:, q:] = better
    limit = cap_int if not inst.strict else cap_int - 1
    feas = g <= limit
    if not feas.any():
        return empty, 0.0
    qs = np.nonzero(feas.any(axis=0))[0]
    best_q = int(qs[-1])
    best_c = int(np.nonzero(feas[:, best_q])[0][0])
    counts = [0] * ntypes
    c, q = best_c, best_q
    for j in range(len(copies) - 1, -1, -1):
        if c > 0 and took[j, c, q]:
            counts[copies[j]] += 1
            c -= 1
            q -= q_of[j]
    volume = sum(counts[ti] * inst.items[ti].volume for ti in range(ntypes))
    return tuple(counts), volume


def _random_kcc(rng, capacity=None, denominators=(6, 10, 24, 35, 1000)):
    """Item types with multiplicities often above what fits, zero volumes
    now and then, volumes close to the sizes (as the master's duals tend to
    be, which makes the scaled volumes tie often), and a cardinality below,
    at or above the total."""
    ntypes = rng.randint(1, 5)
    items = []
    for _ in range(ntypes):
        den = rng.choice(denominators)
        size = Fraction(rng.randint(1, den), den)
        volume = rng.choice(
            [0.0, rng.random() * 5, float(rng.randint(1, 4)), float(size) * (1 + rng.random() / 10)]
        )
        items.append(KccItemType(size, volume, rng.randint(1, 9)))
    total = sum(it.multiplicity for it in items)
    card = rng.choice([rng.randint(1, total), total, total + rng.randint(1, 5)])
    if capacity is None:
        capacity = Fraction(rng.randint(1, 60), rng.choice([12, 35, 60]))
    return RationalKcc(tuple(items), card, capacity, rng.random() < 0.5)


class TestBoundedOracleMatchesUncapped:
    """The bounded oracle on integer sizes and limit returns exactly the
    multiset the uncapped one returns on the Fractions: same counts and
    bit-equal volume."""

    @pytest.mark.parametrize("eps", [1 / 3, 1 / 6, 1 / 8])
    def test_seeded_instances(self, eps):
        rng = random.Random(61)
        for _ in range(150):
            inst = _random_kcc(rng)
            assert kcc_fptas(_scaled(*inst), eps) == _uncapped_kcc_fptas(inst, eps)

    def test_dual_like_volumes_above_what_fits(self):
        # the regime where the scaling step matters: more copies than fit,
        # cardinality above the total, volumes proportional to sizes
        rng = random.Random(65)
        for _ in range(60):
            items = []
            for _ in range(rng.randint(2, 5)):
                size = Fraction(rng.randint(5, 45), 100)
                items.append(KccItemType(size, float(size) * (1 + rng.random() / 20), rng.randint(2, 9)))
            total = sum(it.multiplicity for it in items)
            inst = RationalKcc(tuple(items), total + rng.randint(0, 3), Fraction(1), rng.random() < 0.5)
            for eps in (1 / 3, 1 / 8):
                assert kcc_fptas(_scaled(*inst), eps) == _uncapped_kcc_fptas(inst, eps)

    def test_multiplicity_above_what_fits(self):
        # 7 copies of 3/10 and 5 of 1/4 offered, at most 3 and 4 fit
        items = _items(("3/10", 2.5, 7), ("1/4", 2.0, 5), ("1/7", 0.7, 9))
        for card in (2, 5, 21, 40):
            for strict in (False, True):
                inst = RationalKcc(items, card, Fraction(1), strict)
                assert kcc_fptas(_scaled(*inst), 1 / 6) == _uncapped_kcc_fptas(inst, 1 / 6)

    def test_cardinality_below_at_and_above_total(self):
        rng = random.Random(62)
        for _ in range(40):
            base = _random_kcc(rng)
            total = sum(it.multiplicity for it in base.items)
            for card in (max(total - 1, 1), total, total + 1, 3 * total):
                inst = base._replace(cardinality=card)
                assert kcc_fptas(_scaled(*inst), 1 / 6) == _uncapped_kcc_fptas(inst, 1 / 6)

    def test_zero_volumes(self):
        items = _items(("1/3", 0.0, 4), ("1/5", 0.0, 2))
        inst = RationalKcc(items, 5, Fraction(1))
        assert kcc_fptas(_scaled(*inst), 1 / 3) == _uncapped_kcc_fptas(inst, 1 / 3) == ((0, 0), 0.0)
        mixed = RationalKcc(_items(("1/3", 0.0, 4), ("1/5", 1.5, 2), ("1/2", 0.0, 1)), 4, Fraction(1))
        assert kcc_fptas(_scaled(*mixed), 1 / 3) == _uncapped_kcc_fptas(mixed, 1 / 3)

    def test_window_capacities(self):
        # 1 - (3/4)**(t+1): the strict capacity of window t at eps = 1/3,
        # whose denominator 4**(t+1) passes 2**60 from t = 29 on
        rng = random.Random(63)
        for t in range(41):
            cap = 1 - Fraction(3, 4) ** (t + 1)
            for _ in range(3):
                inst = _random_kcc(rng, capacity=cap)._replace(strict=True)
                assert kcc_fptas(_scaled(*inst), 1 / 6) == _uncapped_kcc_fptas(inst, 1 / 6)

    def test_common_denominator_beyond_int64(self):
        # three coprime denominators near 2**21: their LCM exceeds 2**60,
        # so both oracles run on Python integers
        primes = (2097143, 2097133, 2097131)
        assert math.lcm(*primes) > 2**60
        rng = random.Random(64)
        for _ in range(12):
            items = tuple(
                KccItemType(Fraction(rng.randint(p // 6, p // 2), p), rng.random() * 3, rng.randint(1, 4))
                for p in primes
            )
            for strict in (False, True):
                inst = RationalKcc(items, rng.randint(1, 8), Fraction(1), strict)
                assert kcc_fptas(_scaled(*inst), 1 / 6) == _uncapped_kcc_fptas(inst, 1 / 6)


_size = st.builds(Fraction, st.integers(1, 40), st.sampled_from([8, 12, 40, 45]))


@settings(max_examples=150, deadline=None)
@given(
    types=st.lists(
        st.tuples(_size, st.sampled_from([0.0, 0.5, 1.0, 2.25, 3.7, 5.0]), st.integers(1, 8)),
        min_size=1,
        max_size=4,
    ),
    card=st.integers(0, 30),
    capacity=st.builds(Fraction, st.integers(1, 50), st.sampled_from([16, 40, 45])),
    strict=st.booleans(),
    eps=st.sampled_from([1 / 3, 1 / 6, 1 / 10]),
)
def test_bounded_oracle_matches_uncapped_property(types, card, capacity, strict, eps):
    items = tuple(KccItemType(s, v, m) for s, v, m in types)
    inst = RationalKcc(items, card, capacity, strict)
    assert kcc_fptas(_scaled(*inst), eps) == _uncapped_kcc_fptas(inst, eps)


# a few sizes shared by several types, so that equal sizes tie across types
_shared_size = st.sampled_from([Fraction(1, 8), Fraction(1, 6), Fraction(1, 4), Fraction(1, 2)])


@settings(max_examples=200, deadline=None)
@given(
    types=st.lists(
        st.tuples(st.one_of(_shared_size, _size), st.integers(1, 8), st.sampled_from([0.0, 0.8, 4.0])),
        min_size=1,
        max_size=5,
    ),
    volume=st.sampled_from([1e-3, 0.5, 1.0, 2.25]),
    card=st.integers(0, 30),
    caps=st.sets(st.integers(0, 30), max_size=4),
    capacity=st.builds(Fraction, st.integers(0, 50), st.sampled_from([16, 40, 45])),
    strict=st.booleans(),
    eps=st.sampled_from([1 / 3, 1 / 6, 1 / 10]),
)
def test_equal_volumes_match_uncapped_property(types, volume, card, caps, capacity, strict, eps):
    """Every type that fits carries one volume, so the oracle answers in
    closed form; a type that does not fit may carry any other volume.  Each
    cap c of a ``cardinalities=`` call gets the answer of the uncapped table
    of cardinality c."""
    fits = (lambda s: s < capacity) if strict else (lambda s: s <= capacity)
    items = tuple(KccItemType(s, volume if fits(s) else other, m) for s, m, other in types)
    inst = RationalKcc(items, card, capacity, strict)
    assert kcc_fptas(_scaled(*inst), eps) == _uncapped_kcc_fptas(inst, eps)
    caps = {c for c in caps if c <= card} | {card}
    answers = kcc_fptas(_scaled(*inst), eps, cardinalities=caps)
    assert answers == {c: _uncapped_kcc_fptas(inst._replace(cardinality=c), eps) for c in caps}


class TestEqualVolumes:
    """The closed form on the cases it must get right without a table."""

    def test_equal_sizes_take_the_earliest_type(self):
        items = _items(("1/4", 1.0, 2), ("1/8", 1.0, 1), ("1/4", 1.0, 3))
        for card, counts in ((1, (0, 1, 0)), (3, (2, 1, 0)), (4, (2, 1, 1)), (9, (2, 1, 1))):
            inst = RationalKcc(items, card, Fraction(1))
            answer = kcc_fptas(_scaled(*inst), 1 / 6)
            assert answer == _uncapped_kcc_fptas(inst, 1 / 6) and answer[0] == counts

    def test_volume_sums_in_type_order(self):
        # taken smallest first, type 2 before 0, but summed as the table
        # does, in type order: 0.1 + 0.2 + 0.3 rounds otherwise than
        # 0.3 + 0.2 + 0.1
        items = _items(("1/4", 0.1, 1), ("1/8", 0.1, 2), ("1/16", 0.1, 3))
        inst = RationalKcc(items, 9, Fraction(1))
        counts, volume = kcc_fptas(_scaled(*inst), 1 / 6)
        ref_counts, ref_volume = _uncapped_kcc_fptas(inst, 1 / 6)
        assert counts == ref_counts == (1, 2, 3)
        assert volume.hex() == ref_volume.hex() == (0.1 + 2 * 0.1 + 3 * 0.1).hex()

    def test_a_million_copies_need_no_table(self):
        # the table would have 10**6 + 1 rows and 6 * 10**12 volume columns
        inst = KccInstance((KccItemType(1, 1.0, 10**6), KccItemType(2, 1.0, 10**6)), 10**6, 10**6)
        assert kcc_fptas(inst, 1 / 6) == ((10**6, 0), 1e6)


def _price_all_uncached(duals_alpha, duals_gamma, duals_delta, model, kcc_eps):
    """price_all as a plain sweep: one oracle call per (window, level) pair
    with its raw cardinality, no cache, the dual terms added per pair, and
    the oracle given Fraction sizes with each window's Fraction capacity.
    Each call scales volumes as the largest raw cardinality of its window
    power t does (per-power scaling)."""
    stair = model.staircase
    items = tuple(
        KccItemType(Fraction(v, model.scale), duals_alpha.get(v, 0.0), mult)
        for v, mult in zip(model.sizes, model.demands)
    )
    slack = 1.0 / (1.0 - kcc_eps)

    def raw_cards(window):
        for p in range(max(window.a, 1), model.p_max + 1):
            k_p = stair.ks[p]
            card = k_p if window.a == 0 else k_p - stair.ks[window.a - 1] - 1
            if card >= 0:
                yield p, card

    top: dict[int, int] = {}
    for window in model.windows:
        if window.a <= model.p_max:
            for _, card in raw_cards(window):
                top[window.t] = max(top.get(window.t, 0), card)
    found, max_ratio, max_certified = [], 0.0, 0.0
    for window in sorted(model.windows):
        if window.a > model.p_max:
            continue
        if window.t >= model.t_max:
            capacity, strict = Fraction(1), False
        else:
            w = Fraction(model.eps.denominator, model.eps.denominator + 1) ** window.t
            capacity, strict = 1 - w / (1 + model.eps), True
        for p, card in raw_cards(window):
            inst = KccInstance(items, top[window.t], capacity, strict)
            counts, volume = kcc_fptas(inst, kcc_eps, cardinalities=(card,))[card]
            f_kp = stair.f_at[p]
            lhs = (
                volume
                + window.w * duals_gamma.get(window, 0.0)
                + window.kappa * duals_delta.get(window, 0.0)
            )
            certified = (
                volume * slack
                + window.w * duals_gamma.get(window, 0.0)
                + window.kappa * duals_delta.get(window, 0.0)
            )
            ratio = lhs / f_kp
            max_ratio = max(max_ratio, ratio)
            max_certified = max(max_certified, certified / f_kp)
            if ratio > 1.0 + 1e-9:
                total = sum(c * v for c, v in zip(counts, model.sizes))
                config = Configuration(counts, total, sum(counts))
                found.append(PricedColumn(GeneralizedConfiguration(config, p, window), ratio))
    return tuple(found), max_ratio, max_certified


class TestPriceAllMatchesUncachedSweep:
    def _model(self, sizes, mults, n, eps=Fraction(1, 3), s_min=Fraction(1, 20)):
        # the count bound runs up to 1 / s_min, as for kept small items of
        # size s_min, so the top levels allow more items than there are
        f = make_fq(3, n)
        stair = build_staircase(f, eps, n)
        _, t_star = round_size_to_power(eps, s_min)
        p_max = next((p for p, kp in enumerate(stair.ks) if kp >= 1 / s_min), stair.ell)
        scale = math.lcm(*(Fraction(s).denominator for s in sizes))
        return LpModel(
            sizes=tuple(int(Fraction(s) * scale) for s in sizes),
            demands=tuple(mults),
            scale=scale,
            smalls=(),
            windows=tuple(build_windows(eps, t_star + 1, stair)),
            staircase=stair,
            p_max=p_max,
            eps=eps,
            t_max=t_star + 1,
            f=f,
        )

    def test_one_oracle_table_per_window_power(self, monkeypatch):
        # each power t gets one call, whose table is that of the largest
        # cardinality (clamped to the total multiplicity) its pairs ask
        import concavebp.pricing as pricing

        ctx = self._model(["3/5", "9/20", "7/20", "1/4"], [3, 4, 2, 5], 60)
        calls = []
        plain = pricing.kcc_fptas

        def traced(inst, eps, cardinalities=None):
            calls.append((inst.cardinality, set(cardinalities)))
            return plain(inst, eps, cardinalities)

        monkeypatch.setattr(pricing, "kcc_fptas", traced)
        alpha = {v: 1.0 + v / ctx.scale for v in ctx.sizes}
        price_all(_duals(ctx, alpha, {}, {}), ctx, 1 / 6)
        stair, total = ctx.staircase, sum(ctx.demands)
        want: dict[int, set[int]] = {}
        for w in ctx.windows:
            for p in range(max(w.a, 1), ctx.p_max + 1):
                card = stair.ks[p] - (stair.ks[w.a - 1] + 1 if w.a else 0)
                if w.a <= ctx.p_max and card >= 0:
                    want.setdefault(w.t, set()).add(min(card, total))
        assert len(calls) == len(want)
        assert sorted(map(sorted, (caps for _, caps in calls))) == sorted(map(sorted, want.values()))
        assert all(top == max(caps) for top, caps in calls)
        assert any(len(caps) > 1 for _, caps in calls)

    @pytest.mark.parametrize(
        "sizes, mults, n",
        [
            (["5/8", "1/2", "2/5"], [2, 3, 4], 40),
            (["3/5", "9/20", "7/20", "1/4"], [3, 4, 2, 5], 60),
            (["1/2"], [2], 30),
        ],
    )
    def test_same_columns_and_ratios(self, sizes, mults, n):
        ctx = self._model(sizes, mults, n)
        cards = [ctx.staircase.ks[p] for p in range(1, ctx.p_max + 1)]
        assert min(cards) < sum(mults) < max(cards)
        rng = random.Random(42 + n)
        priced = 0
        for _ in range(12):
            priced += _same_as_uncached(ctx, *_random_duals(rng, ctx))
        assert priced > 0

    @pytest.mark.parametrize("k, seed", [(3, 1), (3, 2), (4, 1)])
    def test_same_columns_and_ratios_on_windowed_runs(self, k, seed, monkeypatch):
        # the masters of real runs with kept small items, h_eps = 1/eps on
        # the mixed family: many row windows and levels, priced under each
        # master solution's own duals and under random ones
        import concavebp.afptas as afptas
        from concavebp.generators import mixed

        priced_at = []
        plain = afptas.column_generation

        def recording_pricer(duals, model, kcc_eps):
            priced_at.append((duals.copy(), model))
            return price_all(duals, model, kcc_eps)

        monkeypatch.setattr(
            afptas, "column_generation", lambda model: plain(model, pricer=recording_pricer)
        )
        n = 100
        res = afptas.run_afptas(mixed(n, seed), make_fq(3, n), Fraction(1, k), h_eps=k)
        assert res.provenance.n_windows > 20 and priced_at
        ctx = priced_at[0][1]
        assert len(ctx.row_windows) > 10 and ctx.smalls
        rng = random.Random(k * 100 + seed)
        priced = 0
        for duals, model in priced_at:
            nv, ns = len(model.sizes), len(model.smalls)
            alpha = dict(zip(model.sizes, duals[:nv].tolist()))
            rows = duals[nv + ns :].reshape(-1, 2).tolist()
            gamma = {w: g for w, (g, _) in zip(model.row_windows, rows)}
            delta = {w: d for w, (_, d) in zip(model.row_windows, rows)}
            priced += _same_as_uncached(model, alpha, gamma, delta)
        for _ in range(12):
            priced += _same_as_uncached(ctx, *_random_duals(rng, ctx))
        assert priced > 0


def _random_duals(rng, ctx):
    """Random alpha per size, and gamma and delta on some row windows (a
    master has duals only for the windows with rows)."""
    alpha = {v: rng.random() * 3 for v in ctx.sizes}
    gamma = {w: rng.random() for w in ctx.row_windows if rng.random() < 0.7}
    delta = {w: rng.random() * 0.4 for w in ctx.row_windows if rng.random() < 0.7}
    return alpha, gamma, delta


def _same_as_uncached(ctx, alpha, gamma, delta) -> int:
    """price_all against the plain sweep, bit for bit; the columns found."""
    out = price_all(_duals(ctx, alpha, gamma, delta), ctx, 1 / 6)
    found, max_ratio, max_certified = _price_all_uncached(alpha, gamma, delta, ctx, 1 / 6)
    assert out.violations == found
    assert out.max_ratio.hex() == max_ratio.hex()
    assert out.max_certified_ratio.hex() == max_certified.hex()
    return len(found)
