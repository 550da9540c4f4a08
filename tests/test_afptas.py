import json
import math
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import concavebp

from concavebp import (
    Instance,
    Packing,
    afptas,
    eval_cost,
    exact_opt,
    make_fq,
    run_afptas,
    verify_packing,
)
from concavebp.afptas import round_solution
from concavebp.errors import InvariantError
from concavebp.fractional import fnfi_with_split_repair
from concavebp.generators import generate
from concavebp.lp import LpModel, LpSolution, small_types, split_types
from concavebp.serialize import parse_cost_spec
from concavebp.structures import (
    Configuration,
    GeneralizedConfiguration,
    build_staircase,
    build_windows,
    linear_grouping,
    main_window,
    split_small,
)
from conftest import (
    random_concave_cost,
    random_instance,
    reference_fractional_counts,
    reference_round_solution,
    reference_split_types,
    round_size_to_power,
)


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

    @pytest.mark.parametrize("h_eps", [2, -5, 3.5])
    @pytest.mark.parametrize("n,bins", [(3, 3), (6, 3)])
    def test_h_eps_validated_without_small_items(self, n, bins, h_eps):
        # too few items for the scheme (n = 3, one per bin), or every item
        # large (n = 6): a threshold below 1/eps or not an integer is
        # refused all the same
        inst = Instance.from_values([Fraction(1, 2)] * n)
        with pytest.raises(ValueError, match="h_eps must be an integer >= 1/eps"):
            run_afptas(inst, make_fq(1, n), Fraction(1, 3), h_eps=h_eps)
        assert run_afptas(inst, make_fq(1, n), Fraction(1, 3), h_eps=3).packing.num_bins == bins

    def test_float_h_eps_splits_as_its_integer(self):
        # 40 items of 1/10 reach 3.9 <= 1 + h_eps = 4; the 41st, of 10**-30,
        # would pass 4 by 10**-30, which a float bound of 4.0 * scale misses
        inst = Instance.from_values([Fraction(1, 10)] * 40 + [Fraction(1, 10**30)])
        eps, small = Fraction(1, 3), tuple(range(inst.n))
        want = split_small(inst, eps, 3, small)
        assert len(want.tail) == 40
        assert split_small(inst, eps, 3.0, small) == want
        assert type(split_small(inst, eps, 3.0, small).h_eps) is int

        def digest(h_eps):
            res = run_afptas(inst, make_fq(3, inst.n), eps, h_eps=h_eps)
            return res.packing.bins, json.dumps(res.provenance.to_dict(), sort_keys=True)

        assert digest(3.0) == digest(3)

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

    def test_invariant_checks_survive_optimized_mode(self):
        # python -O strips assert statements; the scheme's checks must still run
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction
            import concavebp.afptas as afptas
            from concavebp import Instance, InvariantError, make_fq
            from concavebp.core import Verdict, Violation

            if __debug__:
                sys.exit("not running under -O")
            afptas.verify_packing = lambda inst, p: Verdict(
                False, (Violation("overfull", 0, "forced"),)
            )
            try:
                afptas.run_afptas(Instance.from_values(["1/2"] * 6), make_fq(3, 6), Fraction(1, 3))
            except InvariantError as exc:
                print(exc)
            else:
                sys.exit("run_afptas returned")
            """
        )
        src = str(Path(concavebp.__file__).resolve().parents[1])
        # -B: the environment below drops PYTHONDONTWRITEBYTECODE
        done = subprocess.run(
            [sys.executable, "-B", "-O", "-c", script],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(
            "scheme produced an invalid packing: overfull (bin 0): forced"
        )

    def test_unsorted_instance_fails_before_any_program(self, monkeypatch):
        # the size types are index ranges of the sorted instance; an unsorted
        # one must be refused up front, not end in an invalid packing
        rng = random.Random(3)
        sizes = [Fraction(rng.randint(400, 1000), 1000) for _ in range(60)]
        sizes += [Fraction(rng.randint(1, 200), 1000) for _ in range(240)]
        rng.shuffle(sizes)
        called = []
        for name in ("enumerate_configurations", "column_generation", "fnfi_with_split_repair"):
            monkeypatch.setattr(f"concavebp.afptas.{name}", lambda *a, **kw: called.append(a))
        with pytest.raises(ValueError, match="Instance.from_values"):
            run_afptas(Instance(tuple(sizes)), make_fq(3, 300), Fraction(1, 3))
        assert called == []

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


@st.composite
def mixed_instances(draw):
    """n // 5 sizes from U{400..1000}/1000 and the rest from U{1..200}/1000."""
    n = draw(st.integers(50, 200))
    large = draw(st.lists(st.integers(400, 1000), min_size=n // 5, max_size=n // 5))
    small = draw(st.lists(st.integers(1, 200), min_size=n - n // 5, max_size=n - n // 5))
    return Instance.from_values([Fraction(v, 1000) for v in large + small])


@settings(max_examples=20, deadline=None)
@given(inst=mixed_instances(), k=st.sampled_from([3, 4]))
def test_windowed_regime_property(inst, k):
    # h_eps = 1/eps, the least the scheme accepts, keeps small items out of
    # the tail so that the windowed program is solved
    eps = Fraction(1, k)
    n_large = len(linear_grouping(inst, eps).large)
    assume(split_small(inst, eps, k, tuple(range(n_large, inst.n))).kept)
    res = run_afptas(inst, make_fq(3, inst.n), eps, h_eps=k)
    p = res.provenance
    assert verify_packing(inst, res.packing).ok
    assert not p.lp_skipped
    assert p.fractional_x + p.fractional_y <= p.fractional_bound
    assert p.lp_certified_ratio <= 1.0 + 1.0 / k


@st.composite
def repeated_small_instances(draw):
    """Like mixed_instances, but the small sizes come from a pool of a few
    values, so that the master's small types hold many items each."""
    n = draw(st.integers(50, 200))
    large = draw(st.lists(st.integers(400, 1000), min_size=n // 5, max_size=n // 5))
    pool = draw(st.lists(st.integers(1, 200), min_size=1, max_size=4, unique=True))
    small = draw(st.lists(st.sampled_from(pool), min_size=n - n // 5, max_size=n - n // 5))
    return Instance.from_values([Fraction(v, 1000) for v in large + small])


@settings(max_examples=20, deadline=None)
@given(inst=repeated_small_instances(), k=st.sampled_from([3, 4]))
def test_windowed_regime_with_repeated_small_sizes(inst, k):
    eps = Fraction(1, k)
    n_large = len(linear_grouping(inst, eps).large)
    assume(split_small(inst, eps, k, tuple(range(n_large, inst.n))).kept)
    res = run_afptas(inst, make_fq(3, inst.n), eps, h_eps=k)
    p = res.provenance
    assert verify_packing(inst, res.packing).ok
    assert not p.lp_skipped
    assert p.fractional_x + p.fractional_y <= p.fractional_bound
    assert p.lp_certified_ratio <= 1.0 + 1.0 / k


def _rounding_fixture(large_size, n_large, small_size, n_small, n, q=1):
    """Build instance, model, grouping for hand-driven rounding tests."""
    eps = Fraction(1, 3)
    sizes = [Fraction(large_size)] * n_large + [Fraction(small_size)] * n_small
    inst = Instance.from_values(sizes)
    assert inst.n == n_large + n_small
    f = make_fq(q, max(n, inst.n))
    stair = build_staircase(f, eps, max(n, inst.n))
    grouping = linear_grouping(inst, eps)
    small_items = small_types(inst.int_sizes, range(n_large, inst.n))
    _, t_star = round_size_to_power(eps, Fraction(small_size))
    windows = build_windows(eps, t_star + 1, stair)
    model = LpModel(
        sizes=(inst.int_sizes[0],),
        demands=(n_large,),
        scale=inst.scale,
        smalls=small_items,
        windows=tuple(windows),
        staircase=stair,
        p_max=stair.ell,
        eps=eps,
        t_max=t_star + 1,
        f=f,
    )
    return inst, f, grouping, model, stair


def _solution(model, columns_with_values, y):
    """``y`` maps (small type, window) pairs to their mass; the assignment
    is its split into stretches, as ``extract_basic`` makes it."""
    return LpSolution(
        objective=sum(
            model.staircase.f_at[gc.p] * v for gc, v in columns_with_values
        ),
        x=dict(columns_with_values),
        y=y,
        duals=np.zeros(0),
        assignment=split_types(y, model),
    )


class TestRoundSolution:
    def test_round_robin_loads_three_two_two(self):
        inst, f, grouping, model, stair = _rounding_fixture(
            "1/2", 3, "1/10", 7, n=10
        )
        cfg = Configuration((1,), inst.int_sizes[0], 1)
        p = stair.ell
        mw = main_window(cfg, p, model.eps, model.t_max, stair, model.scale)
        gc = GeneralizedConfiguration(cfg, p, mw)
        model.add_column(gc)
        sol = _solution(model, [(gc, 3.0)], {(0, mw): 7.0})
        outcome = _matches_reference(sol, model, grouping, inst)
        # pre-removal loads are 3/2/2 small items; one is removed per bin
        assert sorted(rec["items"] for rec in outcome.config_records) == [2, 2, 3]
        assert outcome.removed_bins == 1
        assert outcome.special_bins == 0 and outcome.excess_bins == 0
        placed = [i for b in outcome.bins for i in b]
        assert sorted(placed) == list(range(10))

    def test_integral_solution_needs_no_dedicated_bins(self):
        inst, f, grouping, model, stair = _rounding_fixture("1/2", 2, "1/10", 0, n=8)
        cfg = Configuration((2,), inst.scale, 2)
        p = 2
        mw = main_window(cfg, p, model.eps, model.t_max, stair, model.scale)
        gc = GeneralizedConfiguration(cfg, p, mw)
        model.add_column(gc)
        sol = _solution(model, [(gc, 1.0)], {})
        outcome = _matches_reference(sol, model, grouping, inst)
        assert outcome.dedicated_small == 0
        assert len(outcome.bins) == 1 and sorted(outcome.bins[0]) == [0, 1]

    def test_fractional_assignment_gets_dedicated_bin(self):
        inst, f, grouping, model, stair = _rounding_fixture("1/2", 1, "1/10", 2, n=8)
        cfg = Configuration((1,), inst.int_sizes[0], 1)
        p = stair.ell
        mw = main_window(cfg, p, model.eps, model.t_max, stair, model.scale)
        gc = GeneralizedConfiguration(cfg, p, mw)
        model.add_column(gc)
        # the first item whole in mw, the second fractionally assigned
        sol = _solution(model, [(gc, 1.0)], {(0, mw): 1.5})
        assert sol.assignment == {(0, mw): (0.0, 1.5)}
        outcome = _matches_reference(sol, model, grouping, inst)
        assert outcome.dedicated_small == 1
        placed = sorted(i for b in outcome.bins for i in b)
        assert placed == [0, 1, 2]

    def test_special_item_splits_off(self):
        # window size 0.5625 exceeds the real free space 0.4375, so a crafted
        # assignment overflows: one special item, the rest excess
        inst, f, grouping, model, stair = _rounding_fixture(
            "9/16", 1, "7/625", 50, n=51
        )
        cfg = Configuration((1,), inst.int_sizes[0], 1)
        p = stair.ell
        mw = main_window(cfg, p, model.eps, model.t_max, stair, model.scale)
        assert mw.w == 9 / 16
        gc = GeneralizedConfiguration(cfg, p, mw)
        model.add_column(gc)
        sol = _solution(model, [(gc, 1.0)], {(0, mw): 50.0})
        outcome = _matches_reference(sol, model, grouping, inst)
        assert outcome.special_bins == 1
        assert outcome.excess_bins == 1
        assert outcome.removed_bins == 1
        placed = sorted(i for b in outcome.bins for i in b)
        assert placed == list(range(51))
        for b in outcome.bins:
            assert sum((inst.sizes[i] for i in b), Fraction(0)) <= 1


TABLE = "table:0,1,1.6,2.0,2.3,2.5"
SPECS = ("fq:3", TABLE)


def _matches_reference(basic, model, grouping, inst):
    """Round ``basic`` by runs and by the item-by-item reference: the same
    bins, configuration records and repair-bin counts, and the same
    fractional counts, or an InvariantError from both.  Returns the
    outcome, or None when both raised."""
    items = reference_split_types(basic.y, model)
    try:
        want = reference_round_solution(basic.x, items, model, grouping, inst)
    except InvariantError:
        with pytest.raises(InvariantError):
            round_solution(basic, model, grouping, inst)
        return None
    got = round_solution(basic, model, grouping, inst)
    counts = (got.dedicated_small, got.removed_bins, got.special_bins, got.excess_bins)
    assert (got.bins, got.config_records, *counts) == want
    assert basic.fractional_counts() == reference_fractional_counts(basic.x, items)
    return got


def _rounding_inputs(inst, spec, k):
    """The arguments of every round_solution call of a windowed run."""
    seen = []
    plain = afptas.round_solution

    def recording(*args):
        seen.append(args)
        return plain(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(afptas, "round_solution", recording)
        run_afptas(inst, parse_cost_spec(spec, inst.n), Fraction(1, k), h_eps=k)
    return seen


class TestRoundingMatchesReference:
    """Rounding by runs against today's per-item reference in conftest."""

    # examples with fractional small items (dedicated bins) and special items
    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(["mixed", "fine", "uniform_random", "clustered_random"]),
        n=st.integers(20, 140),
        seed=st.integers(0, 10**6),
        k=st.sampled_from([3, 4]),
        spec=st.sampled_from(SPECS),
    )
    @example(family="mixed", n=100, seed=2, k=3, spec=TABLE)
    @example(family="mixed", n=60, seed=6, k=4, spec=TABLE)
    @example(family="fine", n=100, seed=2, k=3, spec=TABLE)
    @example(family="uniform_random", n=200, seed=0, k=4, spec="fq:3")
    def test_windowed_runs(self, family, n, seed, k, spec):
        if family == "mixed":
            inst = generate("mixed", {"n": n}, seed)
        elif family == "fine":
            inst = generate("mixed", {"n": n, "denominator": 10**6}, seed)
        else:
            inst = generate(family, {"n": n}, seed)
        for args in _rounding_inputs(inst, spec, k):
            assert _matches_reference(*args) is not None

    def test_examples_cover_fractional_and_special_items(self):
        (args,) = _rounding_inputs(generate("mixed", {"n": 100}, 2), TABLE, 3)
        got = _matches_reference(*args)
        assert got.dedicated_small > 0 and got.special_bins > 0

    # hand-built solutions whose windows overflow the bins' real free space,
    # so that excess subsets form, with straddling items between two windows
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_crafted_solutions(self, data):
        k = data.draw(st.sampled_from([3, 4]), label="k")
        spec = data.draw(st.sampled_from(SPECS), label="spec")
        large = Fraction(data.draw(st.sampled_from(["9/16", "1/2", "3/5"]), label="large"))
        n_large = data.draw(st.integers(1, 3), label="n_large")
        small_sizes = data.draw(
            st.lists(st.sampled_from(["7/625", "1/50", "1/20", "3/40"]), min_size=1, max_size=3, unique=True),
            label="small sizes",
        )
        counts = [data.draw(st.integers(1, 30), label="count") for _ in small_sizes]
        sizes = [large] * n_large
        sizes += [Fraction(v) for v, c in zip(small_sizes, counts) for _ in range(c)]
        inst = Instance.from_values(sizes)
        eps = Fraction(1, k)
        f = parse_cost_spec(spec, inst.n)
        stair = build_staircase(f, eps, inst.n)
        grouping = linear_grouping(inst, eps)
        _, t_star = round_size_to_power(eps, min(Fraction(v) for v in small_sizes))
        model = LpModel(
            sizes=(inst.int_sizes[0],),
            demands=(n_large,),
            scale=inst.scale,
            smalls=small_types(inst.int_sizes, range(n_large, inst.n)),
            windows=tuple(build_windows(eps, t_star + 1, stair)),
            staircase=stair,
            p_max=stair.ell,
            eps=eps,
            t_max=t_star + 1,
            f=f,
        )
        c = data.draw(st.integers(1, int(1 / large)), label="per bin")
        cfg = Configuration((c,), c * inst.int_sizes[0], c)
        # the top level's count bound takes every small item in one bin
        mw = main_window(cfg, stair.ell, eps, model.t_max, stair, model.scale)
        gc = GeneralizedConfiguration(cfg, stair.ell, mw)
        x = {gc: -(-n_large // c) - data.draw(st.sampled_from([0.0, 0.3, 0.7]), label="short")}
        windows = [mw]
        if data.draw(st.booleans(), label="second window"):
            w2 = data.draw(st.sampled_from(model.row_windows), label="w2")
            if w2 != mw:
                x[model.empty_column(w2)] = data.draw(st.sampled_from([0.4, 1.0, 2.5]), label="x2")
                windows.append(w2)
        y = {}
        for s, count in enumerate(counts):
            mass = count + data.draw(st.sampled_from([0.0, -0.5, 1.25]), label="surplus")
            cut = data.draw(st.integers(0, int(4 * mass)), label="cut") / 4
            parts = [cut, mass - cut] if len(windows) == 2 else [mass]
            for w, part in zip(windows, parts):
                if part > 0:
                    y[(s, w)] = part
        basic = LpSolution(0.0, x, y, np.zeros(0), assignment=split_types(y, model))
        _matches_reference(basic, model, grouping, inst)


class TestNormalFormAndPricing:
    """The scheme builds its bins in ``Packing``'s normal form and prices
    them once: each stage's cost and the total must be the sums that
    ``eval_cost`` gives over the same bins, to the last bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        inst=mixed_instances(),
        k=st.sampled_from([3, 4]),
        spec=st.sampled_from(["fq:1", "fq:3", TABLE]),
        windowed=st.booleans(),
    )
    def test_bins_and_costs(self, inst, k, spec, windowed):
        f = parse_cost_spec(spec, inst.n)
        # h_eps = 1/eps keeps small items for the windowed program; the
        # default threshold sends them all to the tail
        res = run_afptas(inst, f, Fraction(1, k), h_eps=k if windowed else None)
        p, prov = res.packing, res.provenance
        assert p == Packing.from_bins(p.bins, p.items)
        assert p.items == frozenset(range(inst.n))
        start = 0
        for stage in prov.stages:
            bins = p.bins[start : start + stage.bins]
            assert stage.cost == math.fsum(f.value(len(b)) for b in bins)
            start += stage.bins
        assert start == p.num_bins == prov.total_bins
        assert prov.total_cost == eval_cost(f, p)
        tail = fnfi_with_split_repair(inst)
        assert tail == Packing.from_bins(tail.bins, tail.items)
