"""Differential tests: cost tables built from their distinct values against
the bodies they replaced.

Each reference below is the earlier implementation under a new name.
``make_fq`` built n + 1 separate floats; ``make_cost_function`` checked the
table against the absolute ``COST_TOL`` as given and divided by f(1) after;
``parse_cost_spec`` extended or cut a ``table:`` spec to n + 1 values before
checking it; ``build_staircase`` walked a flat tail entry by entry.  The
current versions must return the same tables, staircases and error texts,
apart from two intended changes:

* a ``table:`` spec is checked whole, also past its first n + 1 values;
* the checks run after the division by f(1), so their tolerance is
  relative to f(1), and a negative f(1) is a decrease at 1.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavebp import build_staircase, make_cost_function, make_fq
from concavebp.core import COST_TOL, CostFunction
from concavebp.serialize import ParseError, parse_cost_spec
from concavebp.structures import Staircase, check_eps

# -- references -----------------------------------------------------------------


def reference_make_cost_function(values) -> CostFunction:
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("cost table needs at least f(0) and f(1)")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("cost table values must be finite")
    if vals[0] != 0.0:
        raise ValueError("f(0) must be 0")
    for i in range(len(vals) - 1):
        if vals[i + 1] < vals[i] - COST_TOL:
            raise ValueError(f"cost table decreases at {i + 1}")
    for i in range(1, len(vals) - 1):
        if (vals[i + 1] - vals[i]) - (vals[i] - vals[i - 1]) > COST_TOL:
            raise ValueError(f"cost table not concave at {i}")
    f1 = vals[1]
    if f1 == 0.0:
        if any(v > 0 for v in vals):
            raise ValueError("f(1) = 0 with a positive value later on")
        return CostFunction(tuple(vals))
    if f1 != 1.0:
        return CostFunction(tuple(v / f1 for v in vals), normalized=True, scale=f1)
    return CostFunction(tuple(vals))


def reference_make_fq(q: int, n: int) -> CostFunction:
    if q < 1:
        raise ValueError("q must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return CostFunction(tuple(float(min(t, q)) for t in range(n + 1)))


def reference_parse_cost_spec(spec: str, n: int) -> CostFunction:
    if spec.startswith("fq:"):
        try:
            return reference_make_fq(int(spec[3:]), max(n, 1))
        except ValueError as exc:
            raise ParseError(f"bad cost spec {spec!r}: {exc}") from exc
    if spec.startswith("table:"):
        try:
            vals = [float(tok) for tok in spec[6:].split(",")]
        except ValueError as exc:
            raise ParseError(f"bad cost spec {spec!r}") from exc
        if len(vals) < 2:
            raise ParseError("cost table needs at least two values")
        while len(vals) < n + 1:
            vals.append(vals[-1])
        try:
            return reference_make_cost_function(vals[: n + 1] if n >= 1 else vals)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"cost spec must be fq:<q> or table:<v0,v1,...>, got {spec!r}")


def reference_build_staircase(f: CostFunction, eps: Fraction, n: int) -> Staircase:
    k = check_eps(eps)
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = f.values
    last = len(vals) - 1
    stop = min(n, last)
    ks = list(range(min(n, k) + 1))
    grow = 1.0 + 1.0 / k
    while ks[-1] < n:
        cur = ks[-1]
        bound = grow * vals[min(cur, last)] + 1e-12
        t = cur + 1
        while t < stop and vals[t + 1] <= bound:
            t += 1
        if last <= t < n and vals[last] <= bound:
            t = n
        ks.append(t)
    return Staircase(tuple(ks), tuple(vals[min(q, last)] for q in ks))


# -- helpers --------------------------------------------------------------------


def outcome(build, *args):
    """(values, normalized, scale) of what ``build`` returns, or the text of
    the ValueError (ParseError included) it raises."""
    try:
        f = build(*args)
    except ValueError as exc:
        return str(exc)
    return f.values, f.normalized, f.scale


def cut(result, n):
    """A whole table's outcome as a spec parsed for n items reports it."""
    if isinstance(result, str) or n < 1:
        return result
    values, normalized, scale = result
    return values[: n + 1], normalized, scale


def spec_of(values) -> str:
    return "table:" + ",".join(map(repr, values))


@st.composite
def concave_tables(draw, min_size=2, max_size=14):
    """Non-negative integer tables with f(0) = 0: concave ones, concave
    ones with one entry moved, and arbitrary ones."""
    length = draw(st.integers(min_size, max_size))
    kind = draw(st.sampled_from(["concave", "moved", "any"]))
    if kind == "any":
        return [0] + draw(st.lists(st.integers(0, 40), min_size=length - 1, max_size=length - 1))
    incs = sorted(draw(st.lists(st.integers(0, 9), min_size=length - 1, max_size=length - 1)),
                  reverse=True)
    vals = [0]
    for d in incs:
        vals.append(vals[-1] + d)
    if kind == "moved":
        i = draw(st.integers(1, length - 1))
        vals[i] = max(0, vals[i] + draw(st.sampled_from([-2, -1, 1, 2])))
    return vals


# -- make_fq --------------------------------------------------------------------


class TestMakeFq:
    @given(st.integers(-1, 40), st.integers(-1, 60))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, q, n):
        assert outcome(make_fq, q, n) == outcome(reference_make_fq, q, n)

    @pytest.mark.parametrize("q, n", [(1, 1), (3, 2), (3, 3), (3, 1500), (40, 41)])
    def test_one_float_per_distinct_value(self, q, n):
        vals = make_fq(q, n).values
        assert len(vals) == n + 1
        assert len({id(v) for v in vals}) == len(set(vals)) == min(q, n) + 1

    def test_huge_q_builds_n_plus_one_entries(self):
        assert make_fq(10**30, 4).values == (0.0, 1.0, 2.0, 3.0, 4.0)


# -- make_cost_function ---------------------------------------------------------


class TestMakeCostFunction:
    @given(concave_tables())
    @settings(max_examples=300, deadline=None)
    def test_integer_tables_match_reference(self, vals):
        # integer steps are 0 or at least 1/f(1) >= 1/40 after division, far
        # from the tolerance under either rule
        assert outcome(make_cost_function, vals) == outcome(reference_make_cost_function, vals)

    @given(
        concave_tables(),
        st.sampled_from([1e-12, 1e-9, 0.37, 1.0, 3.0, 1e12]),
        st.lists(st.sampled_from([0.0, 0.0, 4e-10, -4e-10, 2e-9, -2e-9, 1e-3]),
                 min_size=14, max_size=14),
    )
    @settings(max_examples=300, deadline=None)
    def test_checks_run_on_the_normalized_table(self, base, unit, jitter):
        # scaled and jittered tables, many within the tolerance of a breach
        vals = [0.0] + [v * unit + unit * d for v, d in zip(base[1:], jitter)]
        got = outcome(make_cost_function, vals)
        f1 = vals[1]
        if f1 < 0:
            assert got == "cost table decreases at 1"
        elif f1 == 0:
            assert got == outcome(reference_make_cost_function, vals)
        else:
            expected = outcome(reference_make_cost_function, [v / f1 for v in vals])
            if not isinstance(expected, str):
                expected = (expected[0], f1 != 1.0, f1 if f1 != 1.0 else 1.0)
            assert got == expected


# -- parse_cost_spec ------------------------------------------------------------


class TestParseCostSpec:
    @given(concave_tables(), st.integers(-1, 20))
    @settings(max_examples=400, deadline=None)
    def test_table_spec_is_checked_whole_then_cut(self, vals, n):
        spec = spec_of([float(v) for v in vals])
        got = outcome(parse_cost_spec, spec, n)
        whole = outcome(reference_parse_cost_spec, spec, max(n, len(vals) - 1))
        assert got == cut(whole, n)
        before = outcome(reference_parse_cost_spec, spec, n)
        if n + 1 >= len(vals) or (not isinstance(before, str) and not isinstance(got, str)):
            # specs valid under both rules, and every spec not cut, are unchanged
            assert got == before
        if not isinstance(got, str):
            assert len(got[0]) == (n + 1 if n >= 1 else len(vals))
            assert len({id(v) for v in got[0]}) <= len(vals)

    @given(st.sampled_from(["fq:1", "fq:3", "fq:7", "fq:0", "fq:-2", "fq:x", "fq:",
                            "table:", "table:0", "table:0,x", "table:1,2", "splines"]),
           st.integers(-1, 12))
    @settings(max_examples=120, deadline=None)
    def test_other_specs_match_reference(self, spec, n):
        assert outcome(parse_cost_spec, spec, n) == outcome(reference_parse_cost_spec, spec, n)

    def test_cut_spec_is_checked_past_n(self):
        for n in (1, 2, 3, 4, 10):
            with pytest.raises(ParseError, match="^cost table decreases at 4$"):
                parse_cost_spec("table:0,1,2,3,1", n)
            with pytest.raises(ParseError, match="^cost table values must be finite$"):
                parse_cost_spec("table:0,1,nan", n)

    def test_extension_shares_the_last_float(self):
        f = parse_cost_spec("table:0,2,3,4", 50)
        assert f.normalized and f.scale == 2.0
        assert f.values[:4] == (0.0, 1.0, 1.5, 2.0) and len(f.values) == 51
        assert len({id(v) for v in f.values[3:]}) == 1


# -- build_staircase ------------------------------------------------------------


@st.composite
def staircase_tables(draw):
    """Concave tables of floats with a flat tail that is exact, or dips and
    wiggles within ``COST_TOL``, or is missing."""
    head = draw(st.integers(1, 12))
    incs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=head, max_size=head)),
                  reverse=True)
    vals = [0.0]
    for d in incs:
        vals.append(vals[-1] + d)
    flat = draw(st.integers(0, 25))
    last = vals[-1]
    tail = draw(st.sampled_from(["shared", "copies", "wiggle"]))
    if tail == "shared":
        vals += [last] * flat
    elif tail == "copies":
        vals += [float(repr(last)) for _ in range(flat)]  # equal, not the same object
    else:
        vals += [last + draw(st.sampled_from([0.0, 0.0, COST_TOL / 2, -COST_TOL / 2]))
                 for _ in range(flat)]
    if draw(st.booleans()):
        vals += [vals[-1]] * draw(st.integers(1, 5))
    return CostFunction(tuple(vals))


class TestBuildStaircase:
    @given(staircase_tables(), st.integers(1, 60), st.sampled_from([3, 4, 5, 7]))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_walk_it_replaced(self, f, n, k):
        eps = Fraction(1, k)
        got = build_staircase(f, eps, n)
        ref = reference_build_staircase(f, eps, n)
        assert got.ks == ref.ks
        assert got.f_at == ref.f_at

    @pytest.mark.parametrize("spec", ["fq:1", "fq:3", "table:0,1,1.6,2.0,2.3,2.5",
                                      "table:0,1,1.5,2,2,2.0000000001,2"])
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 400])
    def test_specs_match_the_walk_it_replaced(self, spec, n):
        f = parse_cost_spec(spec, n)
        for k in (3, 5):
            assert build_staircase(f, Fraction(1, k), n) == reference_build_staircase(
                f, Fraction(1, k), n
            )
