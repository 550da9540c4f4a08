"""Core model: instances, cost functions, packings and their verification.

Sizes are exact rationals throughout so that capacity feasibility is
bit-exact; an instance also carries them as integers over their common
denominator, so capacity tests need no rational arithmetic.  Items of one
size share one Fraction and one int: an instance holds one object per
distinct size, not per item.  The fractional verifier and the fractional
cost read each part's numerator and denominator and count in integers too.
Cost values are plain floats and are only ever compared with a small
tolerance, never accumulated adversarially.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence, Union

SizeLike = Union[Fraction, int, float, str]

#: tolerance for comparisons between cost values (floats)
COST_TOL = 1e-9

#: fraction types whose numerator and denominator are read as they are;
#: any other part is converted exactly with ``Fraction(part)``
_EXACT_PARTS = (int, Fraction)


def to_size(value: SizeLike) -> Fraction:
    """Convert a size-like value to an exact Fraction.

    Floats are converted exactly (binary expansion); prefer strings like
    "3/4" or Fraction instances for human-entered data.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class Instance:
    """Items to pack: exact-rational sizes in [0, 1], sorted non-increasing.

    ``scale`` (a common denominator of the sizes: their LCM, or the parent's
    ``scale`` for an instance cut out with ``subset``) and ``int_sizes`` (each
    size times ``scale``) are computed on first use and kept; they are not
    fields, so equality, hashing and repr see the sizes only.
    ``from_values`` gives all the items of one size the same Fraction and
    the same int, so the instance holds one object per distinct size.
    """

    sizes: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: Iterable[SizeLike]) -> "Instance":
        sizes = [to_size(v) for v in values]
        scale = math.lcm(*{s.denominator for s in sizes})
        ints = [s.numerator * (scale // s.denominator) for s in sizes]
        # one Fraction per distinct integer, read from a dict keyed on the
        # integers (their hash is C-level, a Fraction's is not); each
        # per-item list is dropped once read, so that on all-distinct sizes
        # the dict costs no more than an index sort would
        fraction_of = dict(zip(ints, sizes))
        del sizes
        ints.sort(reverse=True)
        if ints and (ints[0] > scale or ints[-1] < 0):
            # the first size out of range in non-increasing order
            bad = ints[0] if ints[0] > scale else next(v for v in ints if v < 0)
            raise ValueError(f"item size {Fraction(bad, scale)} outside [0, 1]")
        if len(fraction_of) < len(ints):
            # equal integers are adjacent once sorted; min keeps the first of
            # two equals, so each run shares its first int object
            ints = accumulate(ints, min)
        int_sizes = tuple(ints)
        del ints
        inst = cls(tuple(map(fraction_of.__getitem__, int_sizes)))
        # seed the cached properties with the integers computed above
        object.__setattr__(inst, "scale", scale)
        object.__setattr__(inst, "int_sizes", int_sizes)
        return inst

    @cached_property
    def scale(self) -> int:
        return math.lcm(*{s.denominator for s in self.sizes})

    @cached_property
    def int_sizes(self) -> tuple[int, ...]:
        scale = self.scale
        return tuple(s.numerator * (scale // s.denominator) for s in self.sizes)

    def subset(self, indices: Sequence[int]) -> "Instance":
        """The items at ``indices``, in that order, over this instance's
        ``scale`` and integers, so nothing is recomputed from the sizes.  A
        ``range`` of step 1 is cut out by slicing."""
        ints = self.int_sizes
        if isinstance(indices, range) and indices.step == 1:
            window = slice(indices.start, indices.stop)
            sub = Instance(self.sizes[window])
            sub_ints = ints[window]
        else:
            sub = Instance(tuple(self.sizes[i] for i in indices))
            sub_ints = tuple(ints[i] for i in indices)
        object.__setattr__(sub, "scale", self.scale)
        object.__setattr__(sub, "int_sizes", sub_ints)
        return sub

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def total_size(self) -> Fraction:
        return sum(self.sizes, Fraction(0))


@dataclass(frozen=True)
class CostFunction:
    """Tabulated bin cost f(0..n): non-negative, non-decreasing, concave, f(0)=0.

    ``normalized`` is True iff the input table had f(1) != 1 and was rescaled
    at construction; ``scale`` is the divisor that was applied (1.0 otherwise).
    """

    values: tuple[float, ...]
    normalized: bool = False
    scale: float = 1.0

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def value(self, q: int) -> float:
        """f(q) for integer q; constant at f(n) beyond the table."""
        if q < 0:
            raise ValueError("cost argument must be non-negative")
        return self.values[min(q, self.n)]


def make_cost_function(values: Sequence[float]) -> CostFunction:
    """Validate and build a CostFunction, rescaling so that f(1) = 1.

    Rejects tables with a non-finite value, f(0) != 0, any decrease, a
    convexity violation, or f(1) = 0 while some later value is positive.
    """
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


def make_fq(q: int, n: int) -> CostFunction:
    """Cost that grows linearly (slope 1) up to q items and stays flat after."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return CostFunction(tuple(float(min(t, q)) for t in range(n + 1)))


@dataclass(frozen=True)
class Packing:
    """Integral packing: disjoint bins of item indices covering ``items``."""

    bins: tuple[tuple[int, ...], ...]
    items: frozenset[int]

    @classmethod
    def from_bins(
        cls, bins: Iterable[Iterable[int]], items: Iterable[int] | None = None
    ) -> "Packing":
        norm = tuple(tuple(sorted(b)) for b in bins)
        if items is None:
            covered: set[int] = set()
            for b in norm:
                covered.update(b)
            items = covered
        return cls(norm, frozenset(items))

    @property
    def num_bins(self) -> int:
        return len(self.bins)


@dataclass(frozen=True)
class FractionalPacking:
    """Bins of (item index, fraction in (0, 1]) pairs; fractions of one item sum to 1."""

    bins: tuple[tuple[tuple[int, Fraction], ...], ...]
    items: frozenset[int]

    @classmethod
    def from_bins(
        cls,
        bins: Iterable[Iterable[tuple[int, Fraction]]],
        items: Iterable[int] | None = None,
    ) -> "FractionalPacking":
        norm = tuple(
            tuple(sorted((i, fr if isinstance(fr, Fraction) else Fraction(fr)) for i, fr in b))
            for b in bins
        )
        if items is None:
            covered: set[int] = set()
            for b in norm:
                covered.update(i for i, _ in b)
            items = covered
        return cls(norm, frozenset(items))

    @property
    def num_bins(self) -> int:
        return len(self.bins)


def embed_fractional(p: Packing) -> FractionalPacking:
    """View an integral packing as a fractional one (all fractions 1)."""
    return FractionalPacking.from_bins(
        (((i, Fraction(1)) for i in b) for b in p.bins), p.items
    )


def eval_cost(f: CostFunction, p: Packing) -> float:
    """Total cost: sum of f(bin cardinality) over the bins."""
    vals = f.values
    top = len(vals) - 1
    return math.fsum(vals[min(len(b), top)] for b in p.bins)


def eval_fractional_f(f: CostFunction, q: Union[Fraction, float, int]) -> float:
    """Piecewise-linear extension of f; constant at f(n) for q >= n."""
    if q < 0:
        raise ValueError("fractional cost argument must be non-negative")
    if q >= f.n:
        return f.values[f.n]
    i = math.floor(q)
    if q == i:
        return f.values[i]
    lo, hi = f.values[i], f.values[i + 1]
    frac = float(q - i)
    return (1.0 - frac) * lo + frac * hi


def eval_fractional_cost(f: CostFunction, p: FractionalPacking) -> float:
    """Total cost of a fractional packing; a bin holds the sum of its fractions.

    Each bin's sum is taken exactly, as an integer over a common denominator,
    and the result equals ``eval_fractional_f`` of that sum as a ``Fraction``.
    Parts that are neither ``Fraction`` nor ``int`` (floats, say) are
    converted exactly with ``Fraction(part)`` first.
    """
    vals = f.values
    top = len(vals) - 1
    costs = []
    for b in p.bins:
        num, den = 0, 1  # the bin's sum is num / den, not reduced
        for _, fr in b:
            if not isinstance(fr, _EXACT_PARTS):
                fr = Fraction(fr)
            d = fr.denominator
            if d == den:
                num += fr.numerator
            elif den % d == 0:
                num += fr.numerator * (den // d)
            else:
                num, den = num * d + fr.numerator * den, den * d
        if num < 0:
            raise ValueError("fractional cost argument must be non-negative")
        q, r = divmod(num, den)
        if q >= top:
            costs.append(vals[top])
        elif not r:
            costs.append(vals[q])
        else:
            frac = r / den  # int division rounds correctly: float(Fraction(r, den))
            costs.append((1.0 - frac) * vals[q] + frac * vals[q + 1])
    return math.fsum(costs)


@dataclass(frozen=True)
class Violation:
    kind: str
    where: int | None
    detail: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


def _verify_integral(inst: Instance, p: Packing) -> list[Violation]:
    out: list[Violation] = []
    seen: dict[int, int] = {}
    n, items = inst.n, p.items
    sizes, scale = inst.int_sizes, inst.scale
    for b_idx, b in enumerate(p.bins):
        total = 0
        for i in b:
            if not 0 <= i < n:
                out.append(Violation("unknown-item", b_idx, f"item {i} not in instance"))
                continue
            if i in seen:
                out.append(
                    Violation("duplicate", b_idx, f"item {i} also in bin {seen[i]}")
                )
            else:
                seen[i] = b_idx
            total += sizes[i]
            if i not in items:
                out.append(
                    Violation("unexpected-item", b_idx, f"item {i} not in declared set")
                )
        if total > scale:
            out.append(
                Violation("overfull", b_idx, f"bin total {Fraction(total, scale)} > 1")
            )
    for i in sorted(items):
        if i not in seen:
            out.append(Violation("missing", None, f"item {i} in no bin"))
    return out


def _verify_fractional(inst: Instance, p: FractionalPacking) -> list[Violation]:
    """A part fr = num/den of item i adds num * int_sizes[i] / den to its
    bin's load over ``inst.scale``: the integer quotient, plus an exact
    remainder only when the division leaves one.  An item's parts are summed
    (unreduced) only when it has more than one."""
    out: list[Violation] = []
    n, items = inst.n, p.items
    sizes, scale = inst.int_sizes, inst.scale
    parts: dict[int, tuple[int, int]] = {}  # item -> (num, den) of its parts' sum
    for b_idx, b in enumerate(p.bins):
        load = 0  # over scale
        rest: Fraction | None = None  # over scale, from non-integral products
        in_bin: set[int] = set()
        for i, fr in b:
            if not 0 <= i < n:
                out.append(Violation("unknown-item", b_idx, f"item {i} not in instance"))
                continue
            if i in in_bin:
                out.append(
                    Violation("split-in-bin", b_idx, f"two parts of item {i} in one bin")
                )
            in_bin.add(i)
            exact = fr if isinstance(fr, _EXACT_PARTS) else Fraction(fr)
            num, den = exact.numerator, exact.denominator
            if not 0 < num <= den:
                out.append(
                    Violation("bad-fraction", b_idx, f"item {i} fraction {fr} not in (0,1]")
                )
            if i not in items:
                out.append(
                    Violation("unexpected-item", b_idx, f"item {i} not in declared set")
                )
            if den == 1:
                load += num * sizes[i]
            else:
                q, r = divmod(num * sizes[i], den)
                load += q
                if r:
                    rest = Fraction(r, den) if rest is None else rest + Fraction(r, den)
            if i in parts:
                a, d = parts[i]
                parts[i] = (a + num, d) if d == den else (a * den + num * d, d * den)
            else:
                parts[i] = (num, den)
        if rest is None:
            if load > scale:
                out.append(Violation("overfull", b_idx, f"bin load {Fraction(load, scale)} > 1"))
        elif load + rest > scale:
            out.append(Violation("overfull", b_idx, f"bin load {(load + rest) / scale} > 1"))
    for i in sorted(items):
        num, den = parts.get(i, (0, 1))
        if num != den:
            out.append(
                Violation(
                    "fraction-sum",
                    None,
                    f"item {i} fractions sum to {Fraction(num, den)}, not 1",
                )
            )
    return out


def violation_lines(verdict: Verdict) -> list[str]:
    """One ``kind (bin i): detail`` line per violation."""
    lines = []
    for v in verdict.violations:
        where = f" (bin {v.where})" if v.where is not None else ""
        lines.append(f"{v.kind}{where}: {v.detail}")
    return lines


def verify_packing(inst: Instance, p: Union[Packing, FractionalPacking]) -> Verdict:
    """Check every packing invariant with exact arithmetic; report all failures.

    Fractional parts that are neither ``Fraction`` nor ``int`` are converted
    exactly with ``Fraction(part)``; one it cannot convert (NaN, infinity)
    raises its ``ValueError`` or ``OverflowError``.
    """
    if isinstance(p, Packing):
        violations = _verify_integral(inst, p)
    elif isinstance(p, FractionalPacking):
        violations = _verify_fractional(inst, p)
    else:
        raise TypeError(f"cannot verify object of type {type(p)!r}")
    return Verdict(not violations, tuple(violations))
