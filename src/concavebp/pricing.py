"""Pricing oracle: an FPTAS for the knapsack problem with a cardinality cap,
and the sweep that scans every (window, cost-level) pair for a violated
column of the master program.

The FPTAS scales item volumes, then runs a dynamic program over
(scaled volume, selected count) whose cells store the exact minimum total
size.  Sizes are integers over the scheme's one denominator, Instance.scale;
a window's bound, total < 1 - w/(1+eps), is the integer limit
scale - 1 - floor(scale * w/(1+eps)).  The table is bounded by the limit: no
type gets more copies, and no multiset more items, than fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvariantError
from .structures import (
    Configuration,
    ExtendedConfiguration,
    GeneralizedConfiguration,
    Window,
    main_window,
    scaled_powers,
)

if TYPE_CHECKING:
    from .lp import LpModel


@dataclass(frozen=True)
class KccItemType:
    size: int
    volume: float
    multiplicity: int


@dataclass(frozen=True, init=False)
class KccInstance:
    """Pick at most ``cardinality`` items, total integer size at most ``limit``,
    maximizing volume.  The rational form, a Fraction capacity or a ``strict``
    flag (True: total < capacity), is rescaled by the size denominators' LCM."""

    items: tuple[KccItemType, ...]
    cardinality: int
    limit: int

    def __init__(self, items, cardinality, limit, strict=None):
        if strict is not None or isinstance(limit, Fraction):
            d = math.lcm(*(Fraction(it.size).denominator for it in items))
            items = tuple(replace(it, size=int(it.size * d)) for it in items)
            limit = math.ceil(limit * d) - 1 if strict else math.floor(limit * d)
        self.__dict__.update(items=items, cardinality=cardinality, limit=limit)  # frozen


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

    limit = inst.limit
    # expand copies, dropping anything that cannot appear in any solution: a
    # type gets at most as many copies as fit in the limit.  The scaling
    # step mu stays the one of the uncapped expansion (min(multiplicity,
    # cardinality) copies per type), which keeps every scaled volume as is
    copies: list[int] = []  # type index per copy
    uncapped = 0
    for ti, it in enumerate(inst.items):
        if it.size > limit:
            continue
        uncapped += min(it.multiplicity, inst.cardinality)
        copies.extend([ti] * min(it.multiplicity, inst.cardinality, limit // it.size))
    if not copies:
        return empty, 0.0
    k_eff = min(inst.cardinality, uncapped)
    p_max = max(inst.items[ti].volume for ti in copies)
    if p_max <= 0.0:
        return empty, 0.0
    mu = eps * p_max / k_eff
    # no feasible multiset holds more than c_max copies
    c_max = min(k_eff, limit // min(inst.items[ti].size for ti in copies))
    inf = limit + 1
    # common denominators from wild inputs can exceed the int64 range; Python
    # integers in an object array keep the arithmetic exact in that case
    dtype = np.int64 if limit < 2**60 else object

    q_of = [int(inst.items[ti].volume / mu) for ti in copies]
    q_total = sum(sorted(q_of, reverse=True)[:c_max])
    # g[c, q] = minimum total size using exactly c copies and scaled volume q
    g = np.full((c_max + 1, q_total + 1), inf, dtype=dtype)
    g[0, 0] = 0
    took = np.zeros((len(copies), c_max + 1, q_total + 1), dtype=bool)
    for j, ti in enumerate(copies):
        q = q_of[j]
        s = inst.items[ti].size
        cand = g[:-1, : g.shape[1] - q] + s
        target = g[1:, q:]
        better = cand < target
        if better.any():
            target[better] = cand[better]
            took[j, 1:, q:] = better
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
    duals_alpha: dict[int, float],
    duals_gamma: dict[Window, float],
    duals_delta: dict[Window, float],
    model: LpModel,
    kcc_eps: float,
) -> PricingOutcome:
    """Scan every (window, cost level) pair for violated master columns.

    For each pair, the knapsack FPTAS maximizes the dual volume of a
    configuration under the pair's cardinality cap and size limit; a
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
    # oracle results keyed by the window's size index t (it fixes the
    # limit), then by cardinality; a cardinality at or above the
    # total multiplicity caps nothing, so such pairs share one oracle call
    total_items = sum(model.demands)
    cache: dict[int, dict[int, tuple[tuple[int, ...], float]]] = {}
    floors = scaled_powers(model.eps.denominator, model.t_max, model.scale)
    found: list[PricedColumn] = []
    max_ratio = 0.0
    max_certified = 0.0

    for window in sorted(model.windows):
        if window.a > model.p_max:
            continue  # count bound exceeds every usable cost level
        if window.t >= model.t_max:  # degenerate: too small for any small item
            limit = model.scale
        else:  # total < 1 - w/(1+eps), and w/(1+eps) is the power t + 1
            limit = model.scale - 1 - floors[window.t + 1]
        solved = cache.setdefault(window.t, {})
        gamma_w = float(window.w) * duals_gamma.get(window, 0.0)
        delta_k = window.kappa * duals_delta.get(window, 0.0)
        for p in range(max(window.a, 1), model.p_max + 1):
            k_p = stair.ks[p]
            if window.a == 0:
                card = k_p
            else:
                card = k_p - stair.ks[window.a - 1] - 1
            if card < 0:
                continue
            card = min(card, total_items)
            if card not in solved:
                solved[card] = kcc_fptas(KccInstance(items, card, limit), kcc_eps)
            counts, volume = solved[card]
            f_kp = stair.f_at[p]
            lhs = volume + gamma_w + delta_k
            certified = volume * slack + gamma_w + delta_k
            ratio = lhs / f_kp
            max_ratio = max(max_ratio, ratio)
            max_certified = max(max_certified, certified / f_kp)
            if ratio > 1.0 + 1e-9:
                total = sum(c * v for c, v in zip(counts, model.sizes))
                config = Configuration(counts, total, sum(counts))
                ext = ExtendedConfiguration(config, p, k_p)
                mw = main_window(ext, model.eps, model.t_max, stair, model.scale)
                if not mw.dominates(window):
                    raise InvariantError("priced column must be valid")
                found.append(PricedColumn(GeneralizedConfiguration(ext, window), ratio))
    return PricingOutcome(tuple(found), max_ratio, max_certified)
