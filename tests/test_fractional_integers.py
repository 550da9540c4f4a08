"""Differential tests: fractional packings, the scheme's threshold and the
configuration enumeration on integers, against the bodies they replaced.

Each reference below is the earlier implementation under a new name.  The
fractional verifier and the fractional cost summed ``Fraction`` parts; the
split repair built ``fnfi``'s ``Fraction`` packing and dropped the split
items; the threshold walked ``Fraction`` powers (``round_size_to_power``, in
``conftest.py``) and compared the breakpoints with a ``Fraction`` delta; the
enumeration recursed through a closure that referred to itself.  The integer
versions must return exactly the same values: violations down to their text,
and costs compared with ``==``.
"""
import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavebp import (
    CostFunction,
    FractionalPacking,
    Instance,
    Packing,
    eval_cost,
    eval_fractional_cost,
    eval_fractional_f,
    fnfi,
    fnfi_with_split_repair,
    linear_grouping,
    make_fq,
    run_afptas,
    split_small,
    verify_packing,
)
from concavebp.core import Violation, _verify_fractional
from concavebp.errors import SolverLimitError
from concavebp.fractional import split_items
from concavebp.structures import (
    Configuration,
    build_staircase,
    enumerate_configurations,
    main_windows,
    power_index,
)
from conftest import random_concave_cost, random_fractional_packing, round_size_to_power

# denominators above 2**63, so no product of a part and a size fits a machine word
BIG = tuple(2**63 + d for d in (1, 25, 165, 259))


# -- references -----------------------------------------------------------------


def reference_verify_fractional(inst: Instance, p: FractionalPacking) -> list[Violation]:
    out: list[Violation] = []
    totals: dict[int, Fraction] = {}
    for b_idx, b in enumerate(p.bins):
        load = Fraction(0)
        in_bin: set[int] = set()
        for i, fr in b:
            if not 0 <= i < inst.n:
                out.append(Violation("unknown-item", b_idx, f"item {i} not in instance"))
                continue
            if i in in_bin:
                out.append(
                    Violation("split-in-bin", b_idx, f"two parts of item {i} in one bin")
                )
            in_bin.add(i)
            if not 0 < fr <= 1:
                out.append(
                    Violation("bad-fraction", b_idx, f"item {i} fraction {fr} not in (0,1]")
                )
            if i not in p.items:
                out.append(
                    Violation("unexpected-item", b_idx, f"item {i} not in declared set")
                )
            load += fr * inst.sizes[i]
            totals[i] = totals.get(i, Fraction(0)) + fr
        if load > 1:
            out.append(Violation("overfull", b_idx, f"bin load {load} > 1"))
    for i in sorted(p.items):
        if totals.get(i, Fraction(0)) != 1:
            out.append(
                Violation(
                    "fraction-sum",
                    None,
                    f"item {i} fractions sum to {totals.get(i, Fraction(0))}, not 1",
                )
            )
    return out


def reference_eval_fractional_cost(f: CostFunction, p: FractionalPacking) -> float:
    return math.fsum(
        eval_fractional_f(f, sum((fr for _, fr in b), Fraction(0))) for b in p.bins
    )


def reference_fnfi_with_split_repair(inst: Instance):
    frac = fnfi(inst)
    split = set(split_items(frac))
    bins = [[i for i, _ in b if i not in split] for b in frac.bins]
    bins = [b for b in bins if b]
    bins.extend([i] for i in sorted(split))
    return [tuple(sorted(b)) for b in bins]


def reference_enumerate_configurations(sizes, multiplicity, max_items, capacity, budget):
    out: list[Configuration] = []
    counts = [0] * len(sizes)
    min_suffix = [min(sizes[j:]) for j in range(len(sizes))]

    def rec(idx: int, room: int, left: int) -> None:
        if len(out) > budget:
            raise SolverLimitError("configuration enumeration budget exceeded")
        if idx == len(sizes) or left == 0 or room < min_suffix[idx]:
            out.append(Configuration(tuple(counts), capacity - room, max_items - left))
            return
        s = sizes[idx]
        for take in range(min(multiplicity[idx], left, room // s) + 1):
            counts[idx] = take
            rec(idx + 1, room - take * s, left - take)
        counts[idx] = 0

    rec(0, capacity, max_items)
    return out


def reference_delta_and_p(kept_sizes, k: int, ks) -> tuple[Fraction, int]:
    delta = 1 / min(kept_sizes) if kept_sizes else Fraction(k)
    return delta, next((p for p, kp in enumerate(ks) if kp >= delta), len(ks) - 1)


# -- inputs -----------------------------------------------------------------------


def sized(rng: random.Random, n: int) -> Instance:
    """n sizes over a denominator above 2**63, about a tenth of them zero."""
    den = rng.choice(BIG)
    top = rng.choice((den, den // 3, den // 10))
    return Instance.from_values(
        Fraction(0) if rng.random() < 0.1 else Fraction(rng.randint(1, top), den)
        for _ in range(n)
    )


def instances() -> list[Instance]:
    rng = random.Random(7)
    out = [
        Instance.from_values([]),
        Instance.from_values([0, 0]),
        Instance.from_values([1, 1, 0, Fraction(1, 2)]),
        Instance.from_values([Fraction(3, 5)] * 5 + [Fraction(1, 7)] * 4 + [0] * 2),
        Instance.from_values([Fraction(1, p) for p in (3, 5, 7, 11, 13)] * 3),
        # built positionally: sizes above 1 split over whole bins, and items
        # packed after them see the room they left
        Instance((Fraction(5, 2), Fraction(3, 4), Fraction(1, 3), Fraction(0))),
        Instance((Fraction(1, 3), Fraction(1, 2), Fraction(5, 2), Fraction(3, 4), Fraction(1, 5))),
    ]
    out += [sized(rng, rng.randint(1, 40)) for _ in range(40)]
    for seed in range(20):
        r = random.Random(seed)
        den = r.choice((16, 1000, 997))
        out.append(Instance.from_values(Fraction(r.randint(0, den), den) for _ in range(r.randint(1, 30))))
    return out


def as_lists(p: FractionalPacking) -> list[list[tuple[int, object]]]:
    return [list(b) for b in p.bins]


def mutate(rng: random.Random, inst: Instance, bins: list[list[tuple[int, object]]], items: set):
    """One random change: a violation of some kind the verifier reports, an
    int part, or a split whose products with the size are not integral.  The
    bins and the declared set change in place."""
    n = inst.n
    nonempty = [b for b in bins if b]
    kind = rng.choice(
        ("unknown", "split-in-bin", "zero", "negative", "above-one", "unexpected",
         "overfull", "sum", "int", "odd-split", "declared-outside")
    )
    if kind == "unknown":
        target = rng.choice(bins) if bins else None
        if target is not None:
            target.insert(rng.randint(0, len(target)), (rng.choice((-1, n, n + 3)), Fraction(1, 2)))
    elif kind == "declared-outside":
        items.add(n + rng.randint(0, 2))
    elif not nonempty:
        return
    elif kind == "split-in-bin":
        b = rng.choice(nonempty)
        b.append(rng.choice(b))
    elif kind in ("zero", "negative", "above-one", "int", "sum"):
        b = rng.choice(nonempty)
        pos = rng.randrange(len(b))
        i, fr = b[pos]
        fr = Fraction(fr)
        new = {
            "zero": rng.choice((Fraction(0), 0)),
            "negative": rng.choice((-fr, Fraction(-1), -1, -fr - 5)),
            "above-one": rng.choice((fr + 1, Fraction(3, 2), 2, Fraction(2**64 + 1, 2**64))),
            "int": int(fr) if fr.denominator == 1 else rng.choice((1, 0, 2)),
            "sum": fr / rng.choice((2, 3, BIG[0])),
        }[kind]
        b[pos] = (i, new)
    elif kind == "unexpected":
        items.discard(rng.choice(rng.choice(nonempty))[0])
    elif kind == "overfull":
        if len(nonempty) >= 2:
            a, b = rng.sample(nonempty, 2)
            a.extend(b)
            b.clear()
    elif kind == "odd-split":
        # an item over two parts whose products with its size are not integral
        b = rng.choice(nonempty)
        pos = rng.randrange(len(b))
        i, fr = b[pos]
        den = rng.choice((3, 7, 1001, BIG[1] + 2))
        cut = Fraction(rng.randint(1, den - 1), den) * Fraction(fr)
        b[pos] = (i, cut)
        other = rng.choice(bins)
        other.append((i, Fraction(fr) - cut))


def packings(rng: random.Random, inst: Instance, rounds: int = 6):
    """fnfi, a random feasible packing, and mutations of both."""
    bases = [fnfi(inst)]
    if inst.n:
        bases.append(random_fractional_packing(rng, inst))
    for base in bases:
        yield base
        for _ in range(rounds):
            bins = as_lists(base)
            items = set(base.items)
            for _ in range(rng.randint(1, 3)):
                mutate(rng, inst, bins, items)
            yield FractionalPacking(tuple(tuple(b) for b in bins), frozenset(items))


def costs(rng: random.Random) -> list[CostFunction]:
    """Tables shorter than most bins, so the flat top is read too."""
    return [make_fq(1, 3), make_fq(3, 4), random_concave_cost(rng, rng.randint(1, 6))]


def cost_or_error(f: CostFunction, p: FractionalPacking, fn) -> object:
    try:
        return fn(f, p)
    except ValueError as err:
        return ("ValueError", str(err))


# -- tests --------------------------------------------------------------------------


class TestVerifyFractionalMatchesReference:
    def test_seeded_mutations_fire_every_kind(self):
        rng = random.Random(3)
        seen: dict[str, int] = {}
        for inst in instances():
            for p in packings(rng, inst):
                got = _verify_fractional(inst, p)
                assert got == reference_verify_fractional(inst, p)
                assert verify_packing(inst, p).violations == tuple(got)
                for v in got:
                    seen[v.kind] = seen.get(v.kind, 0) + 1
        kinds = {"unknown-item", "split-in-bin", "bad-fraction", "unexpected-item", "overfull", "fraction-sum"}
        assert kinds <= set(seen), seen

    def test_non_integral_products_keep_an_exact_load(self):
        inst = Instance.from_values([Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)])
        # over scale 6 the sizes are 3, 3 and 2: half of a 3 leaves a
        # remainder, and two halves make the load integral again
        p = FractionalPacking(
            (((0, Fraction(1, 2)), (1, Fraction(1, 2))), ((0, Fraction(1, 2)), (1, Fraction(1, 2)), (2, 1))),
            frozenset(range(3)),
        )
        assert _verify_fractional(inst, p) == reference_verify_fractional(inst, p) == []
        q = FractionalPacking(
            (((0, Fraction(5, 7)), (1, Fraction(5, 7)), (2, 1)), ((0, Fraction(2, 7)), (1, Fraction(2, 7)))),
            frozenset(range(3)),
        )
        got = _verify_fractional(inst, q)
        assert got == reference_verify_fractional(inst, q)
        assert got == [Violation("overfull", 0, "bin load 22/21 > 1")]

    def test_float_parts_are_converted_exactly(self):
        inst = Instance.from_values([Fraction(3, 5), Fraction(1, 10), Fraction(1, 10)])
        floats = (((0, 0.75), (1, 1.0)), ((0, 0.25), (2, 1.0)))
        exact = tuple(tuple((i, Fraction(fr)) for i, fr in b) for b in floats)
        p = FractionalPacking(floats, frozenset(range(3)))
        q = FractionalPacking(exact, frozenset(range(3)))
        assert _verify_fractional(inst, p) == reference_verify_fractional(inst, q) == []
        assert eval_fractional_cost(make_fq(3, 3), p) == reference_eval_fractional_cost(make_fq(3, 3), q)
        # 0.1 is not 1/10: its binary expansion is what gets summed
        r = FractionalPacking((((1, 0.1), (2, 1)), ((1, 0.9),), ((0, 1),)), frozenset(range(3)))
        exact_r = FractionalPacking(
            tuple(tuple((i, Fraction(fr)) for i, fr in b) for b in r.bins), r.items
        )
        assert _verify_fractional(inst, r) == reference_verify_fractional(inst, exact_r)
        assert [v.kind for v in _verify_fractional(inst, r)] == ["fraction-sum"]
        # a bad part is reported as it was given
        bad = FractionalPacking((((0, 1.5),), ((1, 1), (2, 1))), frozenset(range(3)))
        assert _verify_fractional(inst, bad)[0] == Violation(
            "bad-fraction", 0, "item 0 fraction 1.5 not in (0,1]"
        )
        # a part with no exact value has no load to check
        for part, error in ((math.nan, ValueError), (math.inf, OverflowError)):
            odd = FractionalPacking((((0, part),), ((1, 1), (2, 1))), frozenset(range(3)))
            with pytest.raises(error):
                verify_packing(inst, odd)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2**63 + 1, 2**70).flatmap(
        lambda d: st.lists(st.integers(0, d).map(lambda v: Fraction(v, d)), max_size=25)
    ),
    st.randoms(use_true_random=False),
)
def test_verify_and_cost_match_reference_property(values, rng):
    inst = Instance.from_values(values)
    for p in packings(rng, inst, rounds=3):
        assert _verify_fractional(inst, p) == reference_verify_fractional(inst, p)
        for f in costs(rng):
            assert cost_or_error(f, p, eval_fractional_cost) == cost_or_error(
                f, p, reference_eval_fractional_cost
            )


class TestEvalFractionalCostMatchesReference:
    def test_seeded_packings(self):
        rng = random.Random(4)
        outcomes = {"value": 0, "error": 0, "flat": 0, "between": 0}
        for inst in instances():
            for p in packings(rng, inst):
                for f in costs(rng):
                    got = cost_or_error(f, p, eval_fractional_cost)
                    assert got == cost_or_error(f, p, reference_eval_fractional_cost)
                    outcomes["error" if isinstance(got, tuple) else "value"] += 1
                    sums = [sum((Fraction(fr) for _, fr in b), Fraction(0)) for b in p.bins]
                    outcomes["flat"] += any(q >= f.n for q in sums)
                    outcomes["between"] += any(q >= 0 and q.denominator > 1 for q in sums)
        assert all(outcomes.values()), outcomes

    def test_negative_sum_raises(self):
        p = FractionalPacking((((0, Fraction(-1, 2)),),), frozenset({0}))
        with pytest.raises(ValueError, match="non-negative"):
            eval_fractional_cost(make_fq(2, 3), p)

    def test_int_parts_and_empty_bins(self):
        f = random_concave_cost(random.Random(1), 5)
        p = FractionalPacking(((), ((0, 1), (1, 1)), ((2, 1), (3, Fraction(1, 3)))), frozenset(range(4)))
        assert eval_fractional_cost(f, p) == reference_eval_fractional_cost(f, p)
        # a one-entry table is flat at f(0)
        flat = CostFunction((0.0,))
        assert eval_fractional_cost(flat, p) == reference_eval_fractional_cost(flat, p) == 0.0

    def test_eval_cost_reads_the_clamped_table(self):
        rng = random.Random(2)
        for _ in range(50):
            f = random_concave_cost(rng, rng.randint(1, 6))
            p = Packing(tuple(tuple(range(rng.randint(0, 9))) for _ in range(6)), frozenset())
            assert eval_cost(f, p) == math.fsum(f.value(len(b)) for b in p.bins)


class TestSplitRepairMatchesReference:
    def test_seeded_and_edge_instances(self):
        for inst in instances():
            assert list(fnfi_with_split_repair(inst).bins) == reference_fnfi_with_split_repair(inst)

    def test_subset_keeps_the_parent_integers(self):
        rng = random.Random(9)
        for inst in instances():
            idx = sorted(rng.sample(range(inst.n), rng.randint(0, inst.n)))
            sub = inst.subset(idx)
            plain = Instance(tuple(inst.sizes[i] for i in idx))
            assert sub == plain and sub.scale == inst.scale
            assert sub.int_sizes == tuple(s * inst.scale for s in plain.sizes)
            assert fnfi_with_split_repair(sub) == fnfi_with_split_repair(plain)

    def test_range_subset_slices(self):
        # a step-1 range is cut out by slicing, with the same result as the
        # same indices listed one by one
        rng = random.Random(10)
        for inst in instances():
            lo = rng.randint(0, inst.n)
            hi = rng.randint(lo, inst.n)
            for idx in (range(lo, hi), range(inst.n - 1, lo - 1, -1)):
                sub, listed = inst.subset(idx), inst.subset(list(idx))
                assert sub == listed and type(sub.sizes) is tuple
                assert (sub.scale, sub.int_sizes) == (listed.scale, listed.int_sizes)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2**63 + 1, 2**70).flatmap(
        lambda d: st.lists(st.integers(0, d).map(lambda v: Fraction(v, d)), max_size=40)
    )
)
def test_split_repair_matches_reference_property(values):
    inst = Instance.from_values(values)
    assert list(fnfi_with_split_repair(inst).bins) == reference_fnfi_with_split_repair(inst)


class TestThresholdMatchesReference:
    def test_power_index(self):
        rng = random.Random(6)
        for _ in range(2000):
            k = rng.choice((3, 4, 5, 7, 10))
            scale = rng.choice((1, 60, 1000, 997 * 991, BIG[2]))
            size = rng.randint(1, scale) if rng.random() < 0.8 else rng.randint(1, max(1, scale // 10**6))
            _, t = round_size_to_power(Fraction(1, k), Fraction(size, scale))
            assert power_index(k, size, scale) == t
        for size, scale in ((0, 5), (6, 5), (-1, 5)):
            with pytest.raises(ValueError):
                power_index(3, size, scale)

    def test_provenance_delta_p_delta_and_threshold(self):
        eps = Fraction(1, 3)
        seen = {"kept": 0, "none kept": 0}
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(30, 90)
            den = rng.choice((1000, 997, BIG[3]))
            n_large = n // 5
            values = [Fraction(rng.randint(den * 2 // 5, den), den) for _ in range(n_large)]
            values += [Fraction(rng.randint(1, den // 5), den) for _ in range(n - n_large)]
            inst = Instance.from_values(values)
            f = make_fq(3, n)
            h_eps = None if seed % 3 == 0 else rng.choice((3, 4, 6))
            prov = run_afptas(inst, f, eps, **({} if h_eps is None else {"h_eps": h_eps})).provenance
            grouping = linear_grouping(inst, eps)
            small = tuple(range(len(grouping.large), n))
            stair = build_staircase(f, eps, n)
            if h_eps is None and small:
                smallest = min(inst.sizes[i] for i in small)
                _, t_star = round_size_to_power(eps, smallest)
                configs = enumerate_configurations(grouping.sizes, grouping.demands, 3, inst.scale)
                mains = main_windows(configs, stair.ell, eps, t_star + 1, stair, inst.scale)
                h_eps = 3 * (len(grouping.sizes) + 2 * len(mains) + 1)
                assert prov.h_eps == h_eps
            kept = split_small(inst, eps, h_eps, small).kept if small else ()
            kept_sizes = [inst.sizes[i] for i in kept]
            delta, p_delta = reference_delta_and_p(kept_sizes, 3, stair.ks)
            t_max = round_size_to_power(eps, min(kept_sizes))[1] + 1 if kept_sizes else 1
            assert prov.delta == str(delta) and prov.p_delta == p_delta
            assert prov.n_windows == (t_max + 1) * (stair.ell + 1)
            seen["kept" if kept else "none kept"] += 1
        assert all(seen.values()), seen


class TestEnumerationMatchesReference:
    def test_order_and_budget(self):
        rng = random.Random(8)
        raised = 0
        for _ in range(300):
            capacity = rng.choice((12, 60, 1000))
            sizes = sorted({rng.randint(1, capacity) for _ in range(rng.randint(0, 5))}, reverse=True)
            mult = [rng.randint(1, 4) for _ in sizes]
            max_items = rng.randint(1, 6)
            full = reference_enumerate_configurations(sizes, mult, max_items, capacity, 10**9)
            for budget in (len(full) - 2, len(full) - 1, len(full), 10**9):
                try:
                    expected = reference_enumerate_configurations(sizes, mult, max_items, capacity, budget)
                except SolverLimitError:
                    with pytest.raises(SolverLimitError):
                        enumerate_configurations(sizes, mult, max_items, capacity, budget)
                    raised += 1
                    continue
                got = enumerate_configurations(sizes, mult, max_items, capacity, budget)
                assert [(c.counts, c.total_size, c.n_items) for c in got] == [
                    (c.counts, c.total_size, c.n_items) for c in expected
                ]
        assert raised


def mixed(n: int, seed: int) -> Instance:
    rng = random.Random(seed)
    n_large = n // 5
    sizes = [Fraction(rng.randint(400, 1000), 1000) for _ in range(n_large)]
    sizes += [Fraction(rng.randint(1, 200), 1000) for _ in range(n - n_large)]
    return Instance.from_values(sizes)


def from_package(obj) -> bool:
    module = getattr(type(obj), "__module__", None) or ""
    if isinstance(obj, type) or callable(obj):
        module += " " + str(getattr(obj, "__module__", ""))
    return "concavebp" in module


@pytest.mark.parametrize("n,h_eps", [(1500, None), (100, 3)], ids=["default-n1500", "windowed-n100"])
def test_scheme_leaves_no_reference_cycles(n, h_eps):
    # with the collector off, anything a run leaves to it is a reference
    # cycle; DEBUG_SAVEALL keeps what the collection finds in gc.garbage
    inst, f = mixed(n, 1), make_fq(3, n)
    kwargs = {} if h_eps is None else {"h_eps": h_eps}
    run_afptas(inst, f, Fraction(1, 3), **kwargs)  # fill the module caches first
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        for _ in range(2):
            run_afptas(inst, f, Fraction(1, 3), **kwargs)
            gc.collect()
            left = [obj for obj in gc.garbage if from_package(obj)]
            gc.garbage.clear()
            assert left == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
