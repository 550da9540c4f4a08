"""Core model: instances, cost functions, packings and their verification.

Sizes are exact rationals throughout so that capacity feasibility is
bit-exact.  Cost values are plain floats and are only ever compared with a
small tolerance, never accumulated adversarially.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

SizeLike = Union[Fraction, int, float, str]

#: tolerance for comparisons between cost values (floats)
COST_TOL = 1e-9


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
    """Items to pack: exact-rational sizes in [0, 1], sorted non-increasing."""

    sizes: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: Iterable[SizeLike]) -> "Instance":
        sizes = sorted((to_size(v) for v in values), reverse=True)
        for s in sizes:
            if s < 0 or s > 1:
                raise ValueError(f"item size {s} outside [0, 1]")
        return cls(tuple(sizes))

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

    def __call__(self, q: int) -> float:
        return self.value(q)


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
        norm = tuple(tuple(sorted(((i, Fraction(fr)) for i, fr in b))) for b in bins)
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
    return math.fsum(f.value(len(b)) for b in p.bins)


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
    """Total cost of a fractional packing; a bin holds the sum of its fractions."""
    return math.fsum(
        eval_fractional_f(f, sum((fr for _, fr in b), Fraction(0))) for b in p.bins
    )


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


def _verify_fractional(inst: Instance, p: FractionalPacking) -> list[Violation]:
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


def verify_packing(inst: Instance, p: Union[Packing, FractionalPacking]) -> Verdict:
    """Check every packing invariant with exact arithmetic; report all failures."""
    if isinstance(p, Packing):
        violations = _verify_integral(inst, p)
    elif isinstance(p, FractionalPacking):
        violations = _verify_fractional(inst, p)
    else:
        raise TypeError(f"cannot verify object of type {type(p)!r}")
    return Verdict(not violations, tuple(violations))
