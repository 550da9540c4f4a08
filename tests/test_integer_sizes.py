"""Differential tests: the integer-size code paths against the Fraction
bodies they replaced.

Each reference below is the earlier implementation, changed only so that it
can be called from here (a new name; the queue fill lifted out of
``round_solution``; the per-item rounded sizes and their distinct values,
which ``linear_grouping`` now hands out as size types; the window tests
written as functions of the rounded minimum small size): it sums, compares
and indexes exact ``Fraction`` sizes.
The integer versions (sizes scaled by ``Instance.scale``, windows decided
on their integers (t, a)) must return exactly the same values, down to the
text of a violation.  Size types, configuration totals, main-window tests
and the pricing oracle's limit share one denominator, ``Instance.scale``.
"""
import math
import random
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavebp import (
    FractionalPacking,
    Instance,
    Packing,
    build_staircase,
    build_windows,
    fnfi,
    linear_grouping,
    main_window,
    overflowed_packing,
    split_small,
)
from concavebp.afptas import _place_large
from concavebp.core import Violation, _verify_integral, to_size
from concavebp.errors import InvariantError
from concavebp.heuristics import greedy_half_matching
from concavebp.lp import LpModel
from concavebp.structures import (
    Configuration,
    SmallSplit,
    Window,
    check_eps,
    enumerate_configurations,
    main_windows,
    scaled_powers,
)
from conftest import random_concave_cost, random_instance, round_size_to_power

# three pairwise coprime denominators near 2**21: their LCM exceeds 2**60
PRIMES = (2097143, 2097133, 2097131)


# -- references -----------------------------------------------------------------


def reference_from_values(values) -> tuple[Fraction, ...]:
    sizes = sorted((to_size(v) for v in values), reverse=True)
    for s in sizes:
        if s < 0 or s > 1:
            raise ValueError(f"item size {s} outside [0, 1]")
    return tuple(sizes)


def per_item_from_values(values) -> tuple[tuple[Fraction, ...], tuple[int, ...], int]:
    """(sizes, int_sizes, scale) as ``from_values`` built them with one
    Fraction and one int per item, sorted through an index list."""
    sizes = [to_size(v) for v in values]
    scale = math.lcm(*{s.denominator for s in sizes})
    ints = [s.numerator * (scale // s.denominator) for s in sizes]
    if ints:
        top = max(ints)
        bad = top if top > scale else max((v for v in ints if v < 0), default=None)
        if bad is not None:
            raise ValueError(f"item size {Fraction(bad, scale)} outside [0, 1]")
    order = sorted(range(len(ints)), key=ints.__getitem__, reverse=True)
    return tuple(sizes[i] for i in order), tuple(ints[i] for i in order), scale


def reference_fnfi(inst: Instance) -> FractionalPacking:
    n = inst.n
    bins: list[list[tuple[int, Fraction]]] = []
    if n == 0:
        return FractionalPacking.from_bins(bins, ())
    cur: list[tuple[int, Fraction]] = []
    room = Fraction(1)
    for i in range(n - 1, -1, -1):  # non-decreasing size order
        size = inst.sizes[i]
        remaining = Fraction(1)  # fraction of item i still unplaced
        while remaining > 0:
            take_size = remaining * size
            if take_size <= room:
                cur.append((i, remaining))
                room -= take_size
                remaining = Fraction(0)
                if room == 0:
                    bins.append(cur)
                    cur = []
                    room = Fraction(1)
            else:
                placed = room / size  # size > 0 here, else take_size == 0 <= room
                cur.append((i, placed))
                remaining -= placed
                bins.append(cur)
                cur = []
                room = Fraction(1)
    if cur:
        bins.append(cur)
    return FractionalPacking.from_bins(bins, range(n))


def reference_verify_integral(inst: Instance, p: Packing) -> list[Violation]:
    out: list[Violation] = []
    seen: dict[int, int] = {}
    for b_idx, b in enumerate(p.bins):
        total = Fraction(0)
        for i in b:
            if not 0 <= i < inst.n:
                out.append(Violation("unknown-item", b_idx, f"item {i} not in instance"))
                continue
            if i in seen:
                out.append(
                    Violation("duplicate", b_idx, f"item {i} also in bin {seen[i]}")
                )
            else:
                seen[i] = b_idx
            total += inst.sizes[i]
            if i not in p.items:
                out.append(
                    Violation("unexpected-item", b_idx, f"item {i} not in declared set")
                )
        if total > 1:
            out.append(Violation("overfull", b_idx, f"bin total {total} > 1"))
    for i in sorted(p.items):
        if i not in seen:
            out.append(Violation("missing", None, f"item {i} in no bin"))
    return out


def reference_split_small(inst, eps, h_eps, small) -> SmallSplit:
    k = check_eps(eps)
    if h_eps < k or h_eps != int(h_eps):
        raise ValueError("h_eps must be an integer >= 1/eps")
    bound = Fraction(1 + h_eps)
    total = Fraction(0)
    cut = 0  # number of suffix items taken
    for pos in range(len(small) - 1, -1, -1):
        total += inst.sizes[small[pos]]
        if total > bound:
            break
        cut += 1
    tail = small[len(small) - cut :]
    kept = small[: len(small) - cut]
    return SmallSplit(kept, tail, h_eps)


def reference_main_window(cfg, p, eps, t_max, staircase, scale) -> Window:
    free = 1 - Fraction(cfg.total_size, scale)
    need = staircase.ks[p] - cfg.n_items
    t = 0
    val = Fraction(1)
    step = Fraction(eps.denominator, eps.denominator + 1)
    while t < t_max and val * step >= free:
        val *= step
        t += 1
    a = next(j for j, kj in enumerate(staircase.ks) if kj >= need)
    return Window(t, a, val, staircase.ks[a])


def reference_main_windows(configs, p_max, eps, t_max, staircase, scale) -> set[Window]:
    by_key: dict[tuple[int, int], Window] = {}
    for cfg in configs:
        for p in range(1, p_max + 1):
            k_p = staircase.ks[p]
            key = (cfg.total_size, k_p - cfg.n_items)
            if cfg.n_items <= k_p and key not in by_key:
                by_key[key] = reference_main_window(cfg, p, eps, t_max, staircase, scale)
    return set(by_key.values())


def reference_window_limit(eps: Fraction, w: Fraction, scale: int) -> int:
    """The pricing oracle's bound for a window of size w: the largest
    integer total, over ``scale``, strictly below 1 - w/(1+eps)."""
    capacity = 1 - w / (1 + eps)
    cap_num, cap_den = capacity.numerator * scale, capacity.denominator
    return -(-cap_num // cap_den) - 1


def reference_rounded_size(inst: Instance, grouping) -> dict[int, Fraction]:
    """The per-item rounded sizes of the earlier ``linear_grouping``: the
    first class keeps its sizes once it is ``l1``, every other class takes
    its maximum."""
    rounded: dict[int, Fraction] = {}
    for j, cls in enumerate(grouping.classes):
        top = max(inst.sizes[i] for i in cls)
        for i in cls:
            rounded[i] = inst.sizes[i] if j == 0 and grouping.l1 else top
    return rounded


def reference_h_set(rounded, grouping) -> tuple[list[Fraction], list[int]]:
    """Distinct rounded large sizes (descending) with multiplicities."""
    by_size: dict[Fraction, int] = {}
    for i in grouping.l_rest:
        v = rounded[i]
        by_size[v] = by_size.get(v, 0) + 1
    sizes = sorted(by_size, reverse=True)
    return sizes, [by_size[v] for v in sizes]


def reference_place_large(bin_counts, sizes, rounded, grouping):
    """The queue fill of round_solution; returns the bins and the leftover."""
    bins: list[list[int]] = [[] for _ in bin_counts]
    queues: dict[Fraction, list[int]] = {v: [] for v in sizes}
    for i in grouping.l_rest:
        queues[rounded[i]].append(i)
    for larges, counts in zip(bins, bin_counts):
        for v, cnt in zip(sizes, counts):
            take = queues[v][:cnt]
            del queues[v][:cnt]
            larges.extend(take)
    leftover = {v: q for v, q in queues.items() if q}
    return bins, leftover


def reference_power_of_one_plus_eps(eps: Fraction, t: int) -> Fraction:
    k = eps.denominator
    return Fraction(k**t, (k + 1) ** t)


def reference_build_windows(eps, s_min_small, staircase) -> list[Window]:
    """Full grid of windows for a rounded minimum small size."""
    check_eps(eps)
    if s_min_small <= 0:
        raise ValueError("s_min_small must be positive")
    _, t_star = round_size_to_power(eps, s_min_small)
    out = []
    for t in range(t_star + 2):
        w = reference_power_of_one_plus_eps(eps, t)
        for a in range(staircase.ell + 1):
            out.append(Window(t, a, w, staircase.ks[a]))
    return out


def reference_usable(w: Window, s_min_small: Fraction) -> bool:
    return w.kappa >= 1 and w.w >= s_min_small


def reference_degenerate(w: Window, s_min_small: Fraction) -> bool:
    return w.w < s_min_small


def reference_dominates(v: Window, w: Window) -> bool:
    return v.w >= w.w and v.kappa >= w.kappa


def reference_greedy_half_matching(inst: Instance) -> list[tuple[int, int]]:
    n = inst.n
    t = sum(1 for s in inst.sizes if s > Fraction(1, 2))
    m0 = list(range(t - (t + 1) // 2, t))
    smalls = list(range(t, n))
    pairs: list[tuple[int, int]] = []
    qi = len(m0) - 1
    qj = 0
    while qi >= 0 and qj < len(smalls):
        i, j = m0[qi], smalls[qj]
        if inst.sizes[i] + inst.sizes[j] <= 1:
            pairs.append((i, j))
            qi -= 1
            qj += 1
        else:
            qj += 1
    return pairs


def reference_overflowed_bins(inst: Instance) -> tuple[tuple[int, ...], ...]:
    bins: list[tuple[int, ...]] = []
    cur: list[int] = []
    load = Fraction(0)
    for i in range(inst.n - 1, -1, -1):
        cur.append(i)
        load += inst.sizes[i]
        if load > 1:
            bins.append(tuple(cur))
            cur = []
            load = Fraction(0)
    if cur:
        bins.append(tuple(cur))
    return tuple(bins)


# -- inputs -----------------------------------------------------------------------


def edge_instances() -> list[Instance]:
    rng = random.Random(21)
    coprime = [Fraction(rng.randint(1, p // 3), p) for p in PRIMES for _ in range(5)]
    return [
        Instance.from_values([]),
        Instance.from_values([0, 0, 0]),
        Instance.from_values([1, 1, 0, 1]),
        Instance.from_values([1, Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 3)]),
        Instance.from_values([Fraction(3, 5)] * 7 + [0] * 3),
        Instance.from_values([Fraction(1, 7)] * 7 + [Fraction(1, 11)] * 11),
        Instance.from_values(coprime),
        Instance.from_values(coprime + [1, 0, Fraction(1, 2)]),
    ]


def seeded_instances(count: int = 60) -> list[Instance]:
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        out.append(
            random_instance(rng, max_n=60, denominators=(16, 64, 1000, 997), allow_zero=True)
        )
    return out + edge_instances()


# -- tests --------------------------------------------------------------------------


class TestInstanceScale:
    def test_from_values_matches_reference(self):
        rng = random.Random(5)
        for inst in seeded_instances():
            values = list(inst.sizes)
            rng.shuffle(values)
            built = Instance.from_values(values)
            assert built.sizes == reference_from_values(values)
            plain = Instance(built.sizes)  # scale and int_sizes computed lazily
            assert (built.scale, built.int_sizes) == (plain.scale, plain.int_sizes)
            assert built.scale == math.lcm(*(s.denominator for s in built.sizes))
            assert all(v == s * built.scale for v, s in zip(built.int_sizes, built.sizes))

    def test_same_first_error_as_reference(self):
        cases = [
            ["1/2", "3/2", "5/4"],
            ["-1/2", "-1/3", "1/2"],
            ["-1/3", "7/6", "1/2"],
            [1.5, "1/4"],
            ["-0.25", 0],
            [Fraction(-1, PRIMES[0]), Fraction(PRIMES[1] + 1, PRIMES[1])],
        ]
        for values in cases:
            with pytest.raises(ValueError) as expected:
                reference_from_values(values)
            with pytest.raises(ValueError) as got:
                Instance.from_values(values)
            assert str(got.value) == str(expected.value)

    def test_cached_values_stay_out_of_equality_hash_and_repr(self):
        inst = Instance.from_values(["1/2", "1/3", "1/4"])
        plain = Instance(inst.sizes)
        assert inst.scale == 12 and inst.int_sizes == (6, 4, 3)
        assert inst == plain and hash(inst) == hash(plain) and repr(inst) == repr(plain)
        assert repr(inst) == f"Instance(sizes={inst.sizes!r})"


# a few distinct values of every kind from_values takes, mostly in [0, 1]
_SIZE_VALUES = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    st.fractions(min_value=0, max_value=1, max_denominator=60).map(str),
    st.integers(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1, width=32),
    st.sampled_from(["0.25", "1/4", 0.25, "0.5", 0.5, Fraction(1, 2), "1", 1.0]),
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
)
# lists drawn from such a pool, so that values repeat
_REPEATED_VALUES = st.lists(_SIZE_VALUES, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40)
)


@settings(max_examples=300, deadline=None)
@given(_REPEATED_VALUES)
def test_from_values_matches_per_item_construction(values):
    try:
        want = per_item_from_values(values)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Instance.from_values(values)
        assert str(got.value) == str(exc)
        return
    inst = Instance.from_values(values)
    assert (inst.sizes, inst.int_sizes, inst.scale) == want
    assert all(type(s) is Fraction for s in inst.sizes)
    # one object per distinct size, shared by all the items of that size
    assert len({id(s) for s in inst.sizes}) == len(set(inst.sizes))
    assert len({id(v) for v in inst.int_sizes}) == len(set(inst.int_sizes))


class TestFnfiMatchesReference:
    def test_seeded_and_edge_instances(self):
        for inst in seeded_instances():
            got = fnfi(inst)
            assert got == reference_fnfi(inst)
            assert all(type(fr) is Fraction for b in got.bins for _, fr in b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40), max_size=40))
def test_fnfi_matches_reference_property(values):
    inst = Instance.from_values(values)
    assert fnfi(inst) == reference_fnfi(inst)


class TestVerifyIntegralMatchesReference:
    def test_overfull_bin_text(self):
        inst = Instance.from_values([Fraction(3, 5), Fraction(3, 5), Fraction(1, PRIMES[0])])
        p = Packing.from_bins([[0, 1], [2]], range(3))
        got = _verify_integral(inst, p)
        assert got == reference_verify_integral(inst, p)
        assert got == [Violation("overfull", 0, "bin total 6/5 > 1")]
        q = Packing.from_bins([[0, 2], [1]], range(3))
        assert _verify_integral(inst, q) == []

    def test_random_packings(self):
        for seed, inst in enumerate(seeded_instances()):
            rng = random.Random(1000 + seed)
            for _ in range(8):
                n_bins = rng.randint(1, max(1, inst.n))
                bins: list[list[int]] = [[] for _ in range(n_bins)]
                for i in range(-1, inst.n + 2):
                    # unknown items, duplicates and missing items included
                    for _ in range(rng.choice((0, 1, 1, 1, 2))):
                        bins[rng.randrange(n_bins)].append(i)
                declared = {i for i in range(inst.n) if rng.random() < 0.95}
                p = Packing(tuple(tuple(b) for b in bins), frozenset(declared))
                assert _verify_integral(inst, p) == reference_verify_integral(inst, p)


class TestLinearGroupingLargeItems:
    def test_large_items_are_the_sizes_at_least_eps(self):
        edge = Instance.from_values([Fraction(1, 3), Fraction(333, 1000), Fraction(1, 4), Fraction(1, 6)])
        for inst in seeded_instances() + [edge]:
            for k in (3, 4, 6):
                eps = Fraction(1, k)
                expected = tuple(i for i, s in enumerate(inst.sizes) if s >= eps)
                assert linear_grouping(inst, eps).large == expected


class TestSplitSmallMatchesReference:
    def test_seeded_and_edge_instances(self):
        for inst in seeded_instances():
            for k in (3, 4, 6):
                eps = Fraction(1, k)
                small = tuple(i for i, s in enumerate(inst.sizes) if s < eps)
                for h_eps in (k, k + 1, 2 * k, 7 * k):
                    got = split_small(inst, eps, h_eps, small)
                    assert got == reference_split_small(inst, eps, h_eps, small)


class TestMainWindowMatchesReference:
    def test_seeded_configurations(self):
        for seed in range(20):
            rng = random.Random(seed)
            k = rng.choice([3, 4, 5])
            eps = Fraction(1, k)
            n = rng.randint(k + 1, 60)
            stair = build_staircase(random_concave_cost(rng, n), eps, n)
            # scale * (k/(k+1))**t is integral up to t = 6 on the first scale
            scale = rng.choice(((k + 1) ** 6 * 5, 60, 1000, PRIMES[seed % 3]))
            sizes = sorted(
                {rng.randint(scale // 5, scale) for _ in range(rng.randint(1, 5))}, reverse=True
            )
            mult = [rng.randint(1, 4) for _ in sizes]
            configs = enumerate_configurations(sizes, mult, k, scale)
            configs.append(Configuration((0,) * len(sizes), scale, k))  # no free space
            # totals at and next to every grid boundary scale - floor(scale * w)
            for floor_w in scaled_powers(k, 8, scale):
                for total in (scale - floor_w - 1, scale - floor_w, scale - floor_w + 1):
                    if 0 <= total <= scale:
                        configs.append(Configuration((0,) * len(sizes), total, 1))
            for p_max in (1, stair.ell):
                for t_max in (-1, 0, 2, 7, 30):
                    for cfg in configs:
                        for p in range(1, p_max + 1):
                            if cfg.n_items <= stair.ks[p]:
                                assert main_window(cfg, p, eps, t_max, stair, scale) == (
                                    reference_main_window(cfg, p, eps, t_max, stair, scale)
                                )
                    got = main_windows(configs, p_max, eps, t_max, stair, scale)
                    expected = reference_main_windows(configs, p_max, eps, t_max, stair, scale)
                    assert got == expected
                    assert list(got) == list(expected)  # same iteration order too

    def test_scaled_powers_are_floors(self):
        for k in (3, 4, 7):
            for scale in (1, 60, (k + 1) ** 9, 2**40 + 1, PRIMES[0] * PRIMES[1] * PRIMES[2]):
                floors = scaled_powers(k, 12, scale)
                for t, floor_w in enumerate(floors):
                    w = Fraction(k, k + 1) ** t
                    assert floor_w <= scale * w < floor_w + 1


class TestWindowLimitMatchesReference:
    def test_seeded_scales(self):
        # limit = scale - 1 - floor(scale * (k/(k+1))**(t+1)) for every
        # window power t < t_max, on scales where scale * w/(1+eps) is and
        # is not integral
        rng = random.Random(17)
        integral = 0
        for _ in range(400):
            k = rng.choice([3, 4, 5, 7])
            eps = Fraction(1, k)
            t_max = rng.randint(1, 40)
            scale = rng.choice(
                (
                    rng.randint(1, 2**40 + 1),
                    (k + 1) ** rng.randint(1, 12) * rng.randint(1, 1000),
                    rng.choice(PRIMES) * rng.randint(1, 997),
                    PRIMES[0] * PRIMES[1] * PRIMES[2],
                )
            )
            floors = scaled_powers(k, t_max, scale)
            for t in range(t_max):
                w = Fraction(k, k + 1) ** t  # the window size
                assert scale - 1 - floors[t + 1] == reference_window_limit(eps, w, scale)
                integral += scale * w / (1 + eps) == floors[t + 1]
        assert integral > 0


class TestSizeTypesMatchReference:
    def test_seeded_instances(self):
        for inst in seeded_instances():
            for k in (3, 4):
                grouping = linear_grouping(inst, Fraction(1, k))
                rounded = reference_rounded_size(inst, grouping)
                sizes, demands = reference_h_set(rounded, grouping)
                assert grouping.sizes == tuple(int(v * inst.scale) for v in sizes)
                assert grouping.demands == tuple(demands)
                # type j is the next demands[j] indices after l1
                pos = len(grouping.l1)
                for v, d in zip(grouping.sizes, grouping.demands):
                    assert all(rounded[i] * inst.scale == v for i in range(pos, pos + d))
                    pos += d
                assert pos == len(grouping.large)

    def test_unsorted_instance_rejected(self):
        inst = Instance((Fraction(1, 10), Fraction(1, 2)))
        with pytest.raises(ValueError, match="Instance.from_values"):
            linear_grouping(inst, Fraction(1, 3))


class TestPlaceLargeMatchesReference:
    def test_seeded_groupings(self):
        for seed in range(40):
            rng = random.Random(seed)
            eps = Fraction(1, 3)
            n_large = rng.choice((5, 30, 60, 120))
            sizes = [Fraction(rng.randint(334, 1000), 1000) for _ in range(n_large)]
            sizes += [Fraction(rng.randint(0, 300), 1000) for _ in range(rng.randint(0, 20))]
            inst = Instance.from_values(sizes)
            grouping = linear_grouping(inst, eps)
            rounded_size = reference_rounded_size(inst, grouping)
            rounded, demands = reference_h_set(rounded_size, grouping)
            # deal the items of each size over random bins; then perturb
            bin_counts = [[0] * len(rounded) for _ in range(rng.randint(1, 40))]
            for j, d in enumerate(demands):
                for _ in range(d):
                    bin_counts[rng.randrange(len(bin_counts))][j] += 1
            if seed % 4 == 1:  # a bin asks for more items than remain
                bin_counts[-1][0] += 2
            if seed % 4 == 2:  # one item left over
                c = rng.choice([c for c in bin_counts if any(c)])
                c[rng.choice([j for j, x in enumerate(c) if x])] -= 1
            if seed % 4 == 3:  # a bin's items of the smallest size left over
                bin_counts[rng.randrange(len(bin_counts))][-1] = 0
            if seed % 2:  # runs of equal bins, as rounded-up copies give them
                bin_counts = [c for c in bin_counts for _ in range(rng.randint(1, 3))]
            counts = [tuple(c) for c in bin_counts]
            runs = [(c, len(list(group))) for c, group in groupby(counts)]
            expected, leftover = reference_place_large(counts, rounded, rounded_size, grouping)
            if leftover:
                with pytest.raises(InvariantError) as err:
                    _place_large(runs, grouping, inst.int_sizes)
                # the message names each size type by its integer over the scale
                leftover = {int(v * inst.scale): q for v, q in leftover.items()}
                assert str(err.value) == f"unplaced large items: {leftover}"
            else:
                bins, loads = _place_large(runs, grouping, inst.int_sizes)
                assert bins == expected
                assert loads == [sum(inst.int_sizes[i] for i in b) for b in expected]


class TestWindowTestsMatchReference:
    @staticmethod
    def full(w: Window):
        """Every field, the size as a float: the grid's sizes are the
        reference's Fractions rounded once."""
        return (w.t, w.a, float(w.w), w.kappa)

    def test_seeded_grids(self):
        seen = {"usable": 0, "degenerate": 0, "dominates": 0, "no_kept": 0}
        for seed in range(60):
            rng = random.Random(seed)
            k = rng.choice([3, 4, 5, 7])
            eps = Fraction(1, k)
            n = rng.randint(1, 80)
            f = random_concave_cost(rng, n)
            stair = build_staircase(f, eps, n)
            if seed % 4 == 0:  # no kept small item: the run's t_max is 1
                s_min_small, t_max = Fraction(1), 1
                seen["no_kept"] += 1
            else:
                denom = rng.choice((60, 1000, 997 * 991, PRIMES[seed % 3]))
                s_min = Fraction(rng.randint(1, denom // k), denom)
                s_min_small, t_star = round_size_to_power(eps, s_min)
                t_max = t_star + 1
            windows = build_windows(eps, t_max, stair)
            expected = reference_build_windows(eps, s_min_small, stair)
            assert [self.full(w) for w in windows] == [self.full(w) for w in expected]
            assert all(type(w.w) is float for w in windows)
            # the reference tests read the exact Fraction sizes
            ref = {(w.t, w.a): w for w in expected}
            model = LpModel(
                sizes=(),
                demands=(),
                scale=1,
                smalls=(),
                windows=tuple(windows),
                staircase=stair,
                p_max=stair.ell,
                eps=eps,
                t_max=t_max,
                f=f,
            )
            for w in windows:
                assert model.usable(w) == reference_usable(ref[w.t, w.a], s_min_small)
                assert (w.t >= model.t_max) == reference_degenerate(ref[w.t, w.a], s_min_small)
                seen["usable"] += model.usable(w)
                seen["degenerate"] += w.t >= model.t_max
            # main windows of random extensions and some grid windows, against
            # every grid window
            sizes = sorted({rng.randint(12, 60) for _ in range(3)}, reverse=True)  # over 60
            configs = enumerate_configurations(sizes, [2] * len(sizes), k, 60)
            mains = {
                main_window(cfg, p, eps, t_max, stair, 60)
                for cfg in configs
                for p in range(1, stair.ell + 1)
                if cfg.n_items <= stair.ks[p]
            }
            for v in sorted(mains) + rng.sample(windows, min(30, len(windows))):
                for w in windows:
                    assert v.dominates(w) == reference_dominates(ref[v.t, v.a], ref[w.t, w.a])
                    seen["dominates"] += v.dominates(w)
        assert all(seen.values()), seen


class TestHalfMatchingAndOverflowMatchReference:
    def test_seeded_instances(self):
        for seed in range(500):
            rng = random.Random(seed)
            denom = (100, 1000, 997, 997 * 991, 7 * 11 * 13)[seed % 5]
            n = rng.randint(0, 60)
            sizes = [Fraction(rng.randint(0, denom), denom) for _ in range(n)]
            if seed % 2:  # mixed denominators in one instance
                sizes = [
                    min(Fraction(1), s * Fraction(denom, rng.randint(denom // 2, denom)))
                    for s in sizes
                ]
            inst = Instance.from_values(sizes)
            assert greedy_half_matching(inst) == reference_greedy_half_matching(inst)
            assert overflowed_packing(inst).bins == reference_overflowed_bins(inst)
