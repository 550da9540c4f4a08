"""Shared generators and brute-force oracles for the test suite."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from concavebp import CostFunction, FractionalPacking, Instance, make_cost_function


def random_instance(
    rng: random.Random,
    n: int | None = None,
    max_n: int = 20,
    denominators=(16, 64, 1000),
    allow_zero: bool = False,
) -> Instance:
    """Mixed-distribution random instance with exact rational sizes."""
    if n is None:
        n = rng.randint(1, max_n)
    denom = rng.choice(denominators)
    style = rng.random()
    sizes: list[Fraction] = []
    for _ in range(n):
        if style < 0.4:
            num = rng.randint(0 if allow_zero else 1, denom)
        elif style < 0.7:
            num = rng.randint(0 if allow_zero else 1, max(denom // 3, 1))
        else:
            num = rng.randint(denom // 3, denom) if denom >= 3 else 1
        sizes.append(Fraction(num, denom))
    return Instance.from_values(sizes)


def round_size_to_power(eps: Fraction, s: Fraction) -> tuple[Fraction, int]:
    """Largest (1+eps)**-t that is <= s; returns (value, t).

    The rational walk that ``structures.power_index`` replaced; tests use it
    to pick t_max and as the reference for the integer version.
    """
    if s <= 0 or s > 1:
        raise ValueError("size must be in (0, 1]")
    t = 0
    val = Fraction(1)
    step = Fraction(eps.denominator, eps.denominator + 1)
    while val > s:
        val *= step
        t += 1
    return val, t


def random_concave_cost(rng: random.Random, n: int) -> CostFunction:
    """Random valid cost table: non-increasing positive increments."""
    incs = sorted((rng.random() for _ in range(max(n, 1))), reverse=True)
    vals = [0.0]
    for d in incs:
        vals.append(vals[-1] + d)
    return make_cost_function(vals)


def random_fractional_packing(
    rng: random.Random, inst: Instance, max_extra_bins: int = 3
) -> FractionalPacking:
    """Feasible fractional packing built by randomly splitting items over bins
    with spare exact-rational capacity.  An item takes at most two random
    cuts; after them it takes all it can of each bin, so it is placed within
    m + 2 steps however large the sizes' denominators are."""
    total = inst.total_size
    m = max(1, int(total) + 1 + rng.randint(0, max_extra_bins))
    room = [Fraction(1)] * m
    content: list[dict[int, Fraction]] = [dict() for _ in range(m)]
    order = list(range(inst.n))
    rng.shuffle(order)
    for i in order:
        s = inst.sizes[i]
        left = Fraction(1)
        cuts = 0
        while left > 0:
            open_bins = [
                b for b in range(m) if i not in content[b] and (s == 0 or room[b] > 0)
            ]
            if not open_bins:
                room.append(Fraction(1))
                content.append(dict())
                m += 1
                continue
            b = rng.choice(open_bins)
            if s == 0:
                content[b][i] = left
                break
            cap_frac = min(left, room[b] / s)
            if cuts == 2 or (left > cap_frac and rng.random() < 0.7):
                take = cap_frac
            else:
                # random cut, biased toward finishing the item
                cuts += 1
                num = rng.randint(1, cap_frac.numerator + cap_frac.denominator)
                take = min(cap_frac, Fraction(num, cap_frac.denominator + 1), left)
            if take <= 0:
                take = cap_frac
            if take <= 0:
                continue
            content[b][i] = take
            room[b] -= take * s
            left -= take
    bins = [list(c.items()) for c in content if c]
    return FractionalPacking.from_bins(bins, range(inst.n))


def random_consecutive_packing(rng: random.Random, inst: Instance) -> list[list[int]]:
    """Feasible packing whose bins are consecutive runs of the items taken in
    non-decreasing size order (the first bins hold the smallest items)."""
    bins: list[list[int]] = []
    cur: list[int] = []
    load = Fraction(0)
    for i in range(inst.n - 1, -1, -1):
        s = inst.sizes[i]
        if load + s > 1 or (cur and rng.random() < 0.3):
            bins.append(cur)
            cur = []
            load = Fraction(0)
        cur.append(i)
        load += s
    if cur:
        bins.append(cur)
    return bins


def brute_force_kcc(items, cardinality, capacity, strict) -> float:
    """Exhaustive optimum of the cardinality-capped knapsack (small inputs)."""
    copies = []
    for ti, it in enumerate(items):
        copies.extend([ti] * it.multiplicity)
    best = 0.0
    for r in range(0, min(cardinality, len(copies)) + 1):
        for combo in itertools.combinations(range(len(copies)), r):
            chosen = [copies[j] for j in combo]
            total = sum((items[t].size for t in chosen), Fraction(0))
            if (total < capacity) if strict else (total <= capacity):
                vol = sum(items[t].volume for t in chosen)
                best = max(best, vol)
    return best


def brute_force_matching(large_sizes, small_sizes, weights) -> Fraction:
    """Maximum total weight over feasible one-to-one matchings of large items
    to small items (sizes must fit one bin together)."""
    best = Fraction(0)

    def rec(li: int, used: frozenset, acc: Fraction) -> None:
        nonlocal best
        if li == len(large_sizes):
            best = max(best, acc)
            return
        rec(li + 1, used, acc)  # leave this large item unmatched
        for sj in range(len(small_sizes)):
            if sj in used:
                continue
            if large_sizes[li] + small_sizes[sj] <= 1:
                rec(li + 1, used | {sj}, acc + weights[sj])

    rec(0, frozenset(), Fraction(0))
    return best


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
