import random
from fractions import Fraction

import pytest

from concavebp import (
    Instance,
    afptas,
    build_staircase,
    build_windows,
    linear_grouping,
    main_window,
    make_cost_function,
    make_fq,
    run_afptas,
    split_small,
)
from concavebp.generators import mixed
from concavebp.structures import (
    Configuration,
    GeneralizedConfiguration,
    Window,
    enumerate_configurations,
    _powers,
    _size_index,
    _window,
    check_eps,
    main_windows,
    scaled_powers,
)
from conftest import random_concave_cost, round_size_to_power


class TestCheckEps:
    def test_accepts_reciprocals(self):
        assert check_eps(Fraction(1, 3)) == 3
        assert check_eps(Fraction(1, 7)) == 7

    def test_rejects_non_reciprocal(self):
        for bad in (Fraction(2, 5), Fraction(1, 2), Fraction(0)):
            with pytest.raises(ValueError):
                check_eps(bad)


class TestLinearGrouping:
    def test_few_large_items_no_rounding(self):
        inst = Instance.from_values([Fraction(1, 2)] * 5 + [Fraction(1, 10)] * 3)
        g = linear_grouping(inst, Fraction(1, 3))
        assert g.l1 == ()
        assert g.sizes == (inst.scale // 2,) and g.demands == (5,)
        assert len(g.classes) == 5

    def test_many_large_items_rounds_to_class_maxima(self):
        sizes = [Fraction(1000 - i, 1500) for i in range(54)]  # all >= 1/3, distinct
        inst = Instance.from_values(sizes)
        g = linear_grouping(inst, Fraction(1, 3))
        assert len(g.classes) == 27
        assert [len(c) for c in g.classes] == [2] * 27
        assert len(g.l1) == 2
        # distinct sizes: one type per class after the first, at its maximum
        assert g.sizes == tuple(max(inst.int_sizes[i] for i in cls) for cls in g.classes[1:])
        assert g.demands == (2,) * 26
        for j, cls in enumerate(g.classes[1:]):
            assert all(g.sizes[j] >= inst.int_sizes[i] for i in cls)

    def test_equal_sizes_round_to_same_value(self):
        inst = Instance.from_values([Fraction(1, 2)] * 54)
        g = linear_grouping(inst, Fraction(1, 3))
        assert g.sizes == (inst.scale // 2,)
        assert g.demands == (len(g.l_rest),) == (52,)

    def test_class_sizes_non_increasing_and_l1_bound(self):
        for count in (27, 30, 53, 80):
            sizes = [Fraction(400 + i, 1200) for i in range(count)]
            inst = Instance.from_values(sizes)
            g = linear_grouping(inst, Fraction(1, 3))
            widths = [len(c) for c in g.classes]
            assert widths == sorted(widths, reverse=True)
            assert sum(widths) == count
            assert max(widths) - min(widths) <= 1
            assert len(g.l1) <= 2 * count / 27


class TestSplitSmall:
    def test_everything_fits_in_tail(self):
        inst = Instance.from_values([Fraction(1, 10)] * 5)
        s = split_small(inst, Fraction(1, 3), 3, tuple(range(5)))
        assert s.tail == (0, 1, 2, 3, 4)
        assert s.kept == ()

    def test_no_small_items(self):
        inst = Instance.from_values([Fraction(1, 2)] * 3)
        s = split_small(inst, Fraction(1, 3), 3, ())
        assert s.tail == () and s.kept == ()

    def test_tail_is_longest_suffix_within_budget(self):
        # forty items of size 1/4: the tail holds at most 4 * (1 + 3) = 16
        inst = Instance.from_values([Fraction(1, 4)] * 40)
        s = split_small(inst, Fraction(1, 3), 3, tuple(range(40)))
        assert len(s.tail) == 16
        assert s.kept == tuple(range(24))
        total = sum((inst.sizes[i] for i in s.tail), Fraction(0))
        assert total <= 4
        assert total + inst.sizes[s.kept[-1]] > 4

    def test_rejects_small_h(self):
        inst = Instance.from_values([Fraction(1, 4)] * 2)
        with pytest.raises(ValueError):
            split_small(inst, Fraction(1, 3), 2, (0, 1))


class TestStaircase:
    def test_unit_cost_jumps_to_n(self):
        stair = build_staircase(make_fq(1, 50), Fraction(1, 3), 50)
        assert stair.ks == (0, 1, 2, 3, 50)

    def test_linear_cost(self):
        stair = build_staircase(make_fq(10, 10), Fraction(1, 3), 10)
        assert stair.ks == (0, 1, 2, 3, 4, 5, 6, 8, 10)

    def test_tiny_n_is_prefix(self):
        stair = build_staircase(make_fq(1, 3), Fraction(1, 3), 2)
        assert stair.ks == (0, 1, 2)

    def test_growth_bound_and_maximality(self):
        import random

        from conftest import random_concave_cost

        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(4, 60)
            f = random_concave_cost(rng, n)
            k = rng.choice([3, 4, 5])
            stair = build_staircase(f, Fraction(1, k), n)
            grow = 1 + 1 / k
            assert stair.ks[-1] == n
            if n <= k:
                assert stair.ks == tuple(range(n + 1))
                continue
            assert stair.ks[: k + 1] == tuple(range(k + 1))
            for j in range(k, stair.ell):
                assert f.value(stair.ks[j + 1]) <= grow * f.value(stair.ks[j]) + 1e-9
                if stair.ks[j + 1] < n:
                    assert f.value(stair.ks[j + 1] + 1) > grow * f.value(stair.ks[j]) + 1e-12


def reference_build_staircase(f, eps, n):
    """The earlier ``build_staircase``: one ``CostFunction.value`` call per
    table entry."""
    k = check_eps(eps)
    if n <= k:
        ks = list(range(n + 1))
        return tuple(ks), tuple(f.value(q) for q in ks)
    ks = list(range(k + 1))
    grow = 1.0 + 1.0 / k
    while ks[-1] < n:
        cur = ks[-1]
        bound = grow * f.value(cur) + 1e-12
        t = cur + 1
        while t < n and f.value(t + 1) <= bound:
            t += 1
        ks.append(t)
    return tuple(ks), tuple(f.value(q) for q in ks)


class TestStaircaseMatchesReference:
    def test_seeded_tables(self):
        rng = random.Random(5)
        for seed in range(200):
            k = rng.choice([3, 4, 5, 7])
            n = rng.randint(1, 80)
            kind = seed % 4
            if kind == 0:  # a full table
                f = random_concave_cost(rng, n)
            elif kind == 1:  # shorter than n: flat beyond its end
                f = random_concave_cost(rng, rng.randint(1, n))
            elif kind == 2:  # a short table that flattens early
                vals = random_concave_cost(rng, rng.randint(1, 6)).values
                f = make_cost_function(list(vals) + [vals[-1]] * rng.randint(0, 4))
            else:
                f = make_fq(rng.randint(1, 12), max(n, 1))
            stair = build_staircase(f, Fraction(1, k), n)
            assert (stair.ks, stair.f_at) == reference_build_staircase(f, Fraction(1, k), n)


class TestWindows:
    def test_near_one_minimum_gives_two_exponents(self):
        stair = build_staircase(make_fq(1, 10), Fraction(1, 3), 10)
        windows = build_windows(Fraction(1, 3), 1, stair)
        assert {w.t for w in windows} == {0, 1}

    def test_grid_cardinality(self):
        stair = build_staircase(make_fq(2, 20), Fraction(1, 3), 20)
        _, t_star = round_size_to_power(Fraction(1, 3), Fraction(1, 10))
        windows = build_windows(Fraction(1, 3), t_star + 1, stair)
        assert len(windows) == (stair.ell + 1) * (t_star + 2)

    def test_power_grid_example(self):
        stair = build_staircase(make_fq(1, 10), Fraction(1, 3), 10)
        _, t_star = round_size_to_power(Fraction(1, 3), Fraction(9, 16))
        windows = build_windows(Fraction(1, 3), t_star + 1, stair)
        assert {w.t for w in windows} == {0, 1, 2, 3}
        assert any(w.w == Fraction(9, 16) for w in windows)

    def test_identity_is_t_and_a(self):
        # windows are tuples, compared and hashed on all four fields; on one
        # grid (t, a) fixes the size and the count bound, so two windows are
        # equal exactly when their (t, a) are, and sort as (t, a) does.  The
        # main windows, built apart from the grid, are the grid's windows
        for k in (3, 4):
            eps = Fraction(1, k)
            stair = build_staircase(make_fq(2, 20), eps, 20)
            _, t_star = round_size_to_power(eps, Fraction(1, 10))
            windows = build_windows(eps, t_star + 1, stair)
            for w in windows:
                for v in windows:
                    assert (w == v) == ((w.t, w.a) == (v.t, v.a))
                twin = Window(w.t, w.a, float(Fraction(k**w.t, (k + 1) ** w.t)), w.kappa)
                assert twin == w and hash(twin) == hash(w)
            by_ta = lambda w: (w.t, w.a)
            assert sorted(windows) == sorted(windows, key=by_ta)
            assert sorted(windows, reverse=True) == sorted(windows, key=by_ta, reverse=True)
            grid = {(w.t, w.a): w for w in windows}
            configs = enumerate_configurations([30, 21, 12], [2, 3, 4], k, 60)
            for cfg in configs:
                for p in range(1, stair.ell + 1):
                    if cfg.n_items <= stair.ks[p]:
                        mw = main_window(cfg, p, eps, t_star + 1, stair, 60)
                        assert mw == grid[mw.t, mw.a] and hash(mw) == hash(grid[mw.t, mw.a])

    def test_model_columns_are_keyed_by_counts_p_t_a(self, monkeypatch):
        # a windowed run's master columns, the projection's targets among
        # them: equal exactly when (counts, p, t, a) are, equal to a twin
        # built anew with its hash, and sorted as (counts, p, t, a)
        models = []
        plain = afptas.column_generation

        def recording(model, *args, **kwargs):
            models.append(model)
            return plain(model, *args, **kwargs)

        monkeypatch.setattr(afptas, "column_generation", recording)
        run_afptas(mixed(100, 1), make_fq(3, 100), Fraction(1, 3), h_eps=3)
        (model,) = models
        cols = model.columns
        assert len(cols) > 20 and len({gc.window for gc in cols}) > 5
        key = lambda gc: (gc.config.counts, gc.p, gc.window.t, gc.window.a)
        for gc in cols:
            for other in cols:
                assert (gc == other) == (key(gc) == key(other))
            cfg, w = gc.config, gc.window
            twin = GeneralizedConfiguration(
                Configuration(tuple(cfg.counts), cfg.total_size, cfg.n_items),
                gc.p,
                Window(w.t, w.a, w.w, w.kappa),
            )
            assert twin == gc and hash(twin) == hash(gc)
        assert sorted(cols) == sorted(cols, key=key)


    def test_sizes_are_the_rounded_fractions(self):
        # each size is k**t / (k+1)**t rounded once, bit for bit the float of
        # the exact Fraction, far beyond any grid a run builds
        stair = build_staircase(make_fq(1, 1), Fraction(1, 3), 1)
        for k in range(3, 13):
            for w in build_windows(Fraction(1, k), 300, stair):
                ref = float(Fraction(k**w.t, (k + 1) ** w.t))
                assert type(w.w) is float and w.w.hex() == ref.hex()


class TestMainWindow:
    def _stair(self):
        return build_staircase(make_fq(2, 12), Fraction(1, 3), 12)

    def test_empty_configuration(self):
        stair = self._stair()
        empty = Configuration((), 0, 0)
        w = main_window(empty, 3, Fraction(1, 3), 5, stair, 64)
        assert w.w == 1 and w.kappa == stair.ks[3]

    def test_full_configuration_gets_smallest_power(self):
        stair = self._stair()
        full = Configuration((2,), 64, 2)
        w = main_window(full, 3, Fraction(1, 3), 5, stair, 64)
        assert w.t == 5  # deepest exponent in the grid

    def test_count_zero_when_config_saturates_level(self):
        stair = self._stair()
        cfg = Configuration((3,), 48, 3)
        w = main_window(cfg, 3, Fraction(1, 3), 5, stair, 64)  # ks[3] = 3 = items
        assert w.kappa == 0

    def test_window_covers_free_space(self):
        stair = self._stair()
        cfg = Configuration((1,), 29, 1)
        w = main_window(cfg, 3, Fraction(1, 3), 9, stair, 64)
        free = 1 - Fraction(cfg.total_size, 64)
        assert w.w >= free
        assert w.w * Fraction(3, 4) < free  # tightest such power

    def test_main_windows_matches_per_extension_windows(self):
        for seed in range(12):
            rng = random.Random(seed)
            k = rng.choice([3, 4, 5])
            eps = Fraction(1, k)
            n = rng.randint(k + 1, 40)
            stair = build_staircase(random_concave_cost(rng, n), eps, n)
            sizes = sorted({rng.randint(24, 60) for _ in range(rng.randint(1, 4))}, reverse=True)
            mult = [rng.randint(1, 4) for _ in sizes]
            configs = enumerate_configurations(sizes, mult, k, 60)
            for p_max in (1, stair.ell):
                for t_max in (0, 2, 7):
                    expected = {
                        main_window(cfg, p, eps, t_max, stair, 60)
                        for cfg in configs
                        for p in range(1, p_max + 1)
                        if cfg.n_items <= stair.ks[p]
                    }
                    assert main_windows(configs, p_max, eps, t_max, stair, 60) == expected


    @staticmethod
    def per_configuration_main_windows(configs, p_max, eps, t_max, stair, scale):
        """main_windows walking every configuration, without first merging
        those of equal (total size, item count)."""
        k, ks = eps.denominator, stair.ks
        floors, powers = scaled_powers(k, t_max, scale), _powers(k, t_max)
        by_key = {}
        for cfg in configs:
            t = _size_index(cfg.total_size, floors)
            for p in range(1, p_max + 1):
                need = ks[p] - cfg.n_items
                if need >= 0 and (t, need) not in by_key:
                    by_key[t, need] = _window(t, need, powers, ks)
        return set(by_key.values())

    def test_main_windows_merges_equal_totals_and_counts(self):
        # random lists that repeat (total size, item count) pairs under
        # different counts vectors, in any order
        for seed in range(40):
            rng = random.Random(seed)
            k = rng.choice([3, 4, 5])
            eps = Fraction(1, k)
            n = rng.randint(k + 1, 40)
            stair = build_staircase(random_concave_cost(rng, n), eps, n)
            pairs = [(rng.randint(0, 60), rng.randint(0, k)) for _ in range(rng.randint(1, 8))]
            configs = [
                Configuration((rng.randint(0, 9), i), *rng.choice(pairs))
                for i in range(rng.randint(0, 60))
            ]
            for p_max in (1, stair.ell):
                for t_max in (0, 2, 7):
                    args = (configs, p_max, eps, t_max, stair, 60)
                    got, want = main_windows(*args), self.per_configuration_main_windows(*args)
                    assert got == want and list(got) == list(want)


class TestEnumerateConfigurations:
    def test_counts_and_feasibility(self):
        sizes = [6, 4]  # 1/2 and 1/3 over 12
        configs = enumerate_configurations(sizes, [2, 3], 3, 12)
        keys = {c.counts for c in configs}
        assert (0, 0) in keys and (2, 0) in keys and (1, 1) in keys and (0, 3) in keys
        assert (2, 1) not in keys  # size 16/12 > 1
        for c in configs:
            assert c.total_size == sum(n * v for n, v in zip(c.counts, sizes)) <= 12
            assert c.n_items <= 3

    def test_budget_guard(self):
        from concavebp.errors import SolverLimitError

        sizes = [10**6 // (100 + i) for i in range(20)]
        with pytest.raises(SolverLimitError):
            enumerate_configurations(sizes, [20] * 20, 20, 10**6, budget=50)
