import random
from fractions import Fraction

import pytest

from concavebp import KccInstance, KccItemType, kcc_fptas, make_fq
from concavebp.lp import LpModel
from concavebp.pricing import price_all
from concavebp.structures import (
    build_staircase,
    build_windows,
    main_window,
    round_size_to_power,
)
from conftest import brute_force_kcc


def _items(*triples):
    return tuple(KccItemType(Fraction(s), v, m) for s, v, m in triples)


class TestKccFptas:
    def test_two_types_cap_two(self):
        inst = KccInstance(
            _items(("3/5", 5.0, 1), ("3/10", 3.0, 2)), 2, Fraction(1)
        )
        counts, volume = kcc_fptas(inst, 1 / 3)
        assert volume == pytest.approx(8.0)
        assert counts == (1, 1)

    def test_cardinality_one(self):
        inst = KccInstance(
            _items(("3/5", 5.0, 1), ("3/10", 3.0, 2)), 1, Fraction(1)
        )
        _, volume = kcc_fptas(inst, 1 / 3)
        assert volume == pytest.approx(5.0)

    def test_zero_cardinality(self):
        inst = KccInstance(_items(("1/2", 9.0, 3)), 0, Fraction(1))
        assert kcc_fptas(inst, 1 / 3) == ((0,), 0.0)

    def test_strict_capacity_excludes_exact_fit(self):
        inst = KccInstance(_items(("1/2", 4.0, 2)), 2, Fraction(1), strict=True)
        counts, volume = kcc_fptas(inst, 1 / 4)
        assert sum(counts) <= 1 and volume == pytest.approx(4.0)
        loose = KccInstance(_items(("1/2", 4.0, 2)), 2, Fraction(1), strict=False)
        counts2, volume2 = kcc_fptas(loose, 1 / 4)
        assert volume2 == pytest.approx(8.0) and counts2 == (2,)

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
            inst = KccInstance(tuple(items), k, cap, strict)
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
            inst = KccInstance(tuple(items), card, cap, strict)
            for eps in (1 / 3, 1 / 5):
                _, volume = kcc_fptas(inst, eps)
                best = brute_force_kcc(items, card, cap, strict)
                assert volume >= (1 - eps) * best - 1e-9


class TestPriceAll:
    def _context(self, sizes, mults, n=12, eps=Fraction(1, 3), s_min=Fraction(1)):
        f = make_fq(2, n)
        stair = build_staircase(f, eps, n)
        s_min_small, t_star = round_size_to_power(eps, s_min)
        windows = build_windows(eps, s_min_small, stair)
        p_max = next(p for p, kp in enumerate(stair.ks) if kp >= eps.denominator)
        return LpModel(
            sizes=tuple(Fraction(s) for s in sizes),
            demands=tuple(mults),
            smalls=(),
            windows=tuple(windows),
            staircase=stair,
            p_max=p_max,
            eps=eps,
            s_min_small=s_min_small,
            t_max=t_star + 1,
            f=f,
        )

    def test_zero_duals_no_violation(self):
        ctx = self._context(["1/2", "2/5"], [3, 2])
        out = price_all({}, {}, {}, ctx, 1 / 6)
        assert out.violations == ()
        assert out.max_ratio <= 1e-12

    def test_large_dual_triggers_violation(self):
        ctx = self._context(["1/2"], [3])
        alpha = {Fraction(1, 2): 5.0}  # exceeds every f(k_p)
        out = price_all(alpha, {}, {}, ctx, 1 / 6)
        assert out.violations
        top = out.violations[0]
        assert top.column.ext.config.counts[0] >= 1
        assert top.ratio > 1.0

    def test_emitted_columns_are_valid(self):
        rng = random.Random(41)
        ctx = self._context(["5/8", "1/2", "2/5"], [2, 3, 4], s_min=Fraction(1, 10))
        for _ in range(15):
            alpha = {v: rng.random() * 3 for v in ctx.sizes}
            gamma = {w: rng.random() for w in ctx.windows}
            delta = {w: rng.random() * 0.4 for w in ctx.windows}
            out = price_all(alpha, gamma, delta, ctx, 1 / 6)
            for pc in out.violations:
                gen = pc.column
                mw = main_window(gen.ext, ctx.eps, ctx.t_max, ctx.staircase)
                assert mw.dominates(gen.window)
                assert gen.ext.config.n_items <= gen.ext.k_p
                assert gen.ext.config.total_size <= 1
