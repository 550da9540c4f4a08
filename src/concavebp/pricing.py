"""Pricing oracle: an FPTAS for the knapsack problem with a cardinality cap,
and the sweep that scans every (window, cost-level) pair for a violated
column of the master program.

The FPTAS scales item volumes, then runs a dynamic program over
(scaled volume, selected count) whose cells store the exact-rational minimum
total size; capacity is therefore checked exactly, including strict bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .structures import (
    Configuration,
    ExtendedConfiguration,
    GeneralizedConfiguration,
    Window,
    main_window,
)

if TYPE_CHECKING:
    from .lp import LpModel


@dataclass(frozen=True)
class KccItemType:
    size: Fraction
    volume: float
    multiplicity: int


@dataclass(frozen=True)
class KccInstance:
    """Pick a multiset of at most ``cardinality`` items, total size within
    ``capacity`` (strictly below it when ``strict``), maximizing volume."""

    items: tuple[KccItemType, ...]
    cardinality: int
    capacity: Fraction
    strict: bool = False


def kcc_fptas(inst: KccInstance, eps: float) -> tuple[tuple[int, ...], float]:
    """Approximate max-volume multiset; volume >= (1 - eps) * optimum.

    Returns (counts per item type, total volume).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    ntypes = len(inst.items)
    empty = (0,) * ntypes
    if inst.cardinality <= 0 or ntypes == 0:
        return empty, 0.0
    for it in inst.items:
        if it.size <= 0:
            raise ValueError("item sizes must be positive")
        if it.volume < 0:
            raise ValueError("item volumes must be non-negative")
        if it.multiplicity < 1:
            raise ValueError("item multiplicities must be >= 1")

    def fits(total: Fraction) -> bool:
        return total < inst.capacity if inst.strict else total <= inst.capacity

    # expand copies, dropping anything that cannot appear in any solution
    copies: list[int] = []  # type index per copy
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
    # common denominators from wild inputs can exceed the int64 range; Python
    # integers in an object array keep the arithmetic exact in that case
    dtype = np.int64 if cap_int < 2**60 else object

    q_of = [int(inst.items[ti].volume / mu) for ti in copies]
    q_total = sum(sorted((q_of[j] for j in range(len(copies))), reverse=True)[:k_eff])
    # g[c, q] = minimum total size using exactly c copies and scaled volume q
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
    # reconstruct
    counts = [0] * ntypes
    c, q = best_c, best_q
    for j in range(len(copies) - 1, -1, -1):
        if c > 0 and took[j, c, q]:
            counts[copies[j]] += 1
            c -= 1
            q -= q_of[j]
    volume = sum(counts[ti] * inst.items[ti].volume for ti in range(ntypes))
    return tuple(counts), volume


@dataclass(frozen=True)
class PricedColumn:
    column: GeneralizedConfiguration
    ratio: float  # violation ratio of the found configuration


@dataclass(frozen=True)
class PricingOutcome:
    violations: tuple[PricedColumn, ...]
    max_ratio: float
    max_certified_ratio: float


def price_all(
    duals_alpha: dict[Fraction, float],
    duals_gamma: dict[Window, float],
    duals_delta: dict[Window, float],
    model: LpModel,
    kcc_eps: float,
) -> PricingOutcome:
    """Scan every (window, cost level) pair for violated master columns.

    For each pair, the knapsack FPTAS maximizes the dual volume of a
    configuration under the pair's cardinality cap and capacity bound; a
    column is reported when its dual value strictly exceeds the cost of its
    level.  The certified ratio inflates the found volume by 1/(1 - kcc_eps)
    so that a max below 1 + eps certifies near-feasibility of the scaled
    duals even against configurations the FPTAS missed.
    """
    stair = model.staircase
    items = tuple(
        KccItemType(v, duals_alpha.get(v, 0.0), mult)
        for v, mult in zip(model.sizes, model.demands)
    )
    slack = 1.0 / (1.0 - kcc_eps)
    cache: dict[tuple[int, Fraction, bool], tuple[tuple[int, ...], float]] = {}
    found: list[PricedColumn] = []
    max_ratio = 0.0
    max_certified = 0.0

    for window in sorted(model.windows):
        if window.a > model.p_max:
            continue  # count bound exceeds every usable cost level
        degenerate = window.w < model.s_min_small
        if degenerate:
            capacity, strict = Fraction(1), False
        else:
            capacity, strict = 1 - window.w / (1 + model.eps), True
        for p in range(max(window.a, 1), model.p_max + 1):
            k_p = stair.ks[p]
            if window.a == 0:
                card = k_p
            else:
                card = k_p - stair.ks[window.a - 1] - 1
            if card < 0:
                continue
            key = (card, capacity, strict)
            if key not in cache:
                cache[key] = kcc_fptas(KccInstance(items, card, capacity, strict), kcc_eps)
            counts, volume = cache[key]
            f_kp = stair.f_at[p]
            lhs = (
                volume
                + float(window.w) * duals_gamma.get(window, 0.0)
                + window.kappa * duals_delta.get(window, 0.0)
            )
            certified = (
                volume * slack
                + float(window.w) * duals_gamma.get(window, 0.0)
                + window.kappa * duals_delta.get(window, 0.0)
            )
            ratio = lhs / f_kp
            max_ratio = max(max_ratio, ratio)
            max_certified = max(max_certified, certified / f_kp)
            if ratio > 1.0 + 1e-9:
                total = sum(c * v for c, v in zip(counts, model.sizes))
                config = Configuration(counts, total, sum(counts))
                ext = ExtendedConfiguration(config, p, k_p)
                mw = main_window(ext, model.eps, model.t_max, stair)
                assert mw.dominates(window), "priced column must be valid"
                found.append(PricedColumn(GeneralizedConfiguration(ext, window), ratio))
    return PricingOutcome(tuple(found), max_ratio, max_certified)
