"""Pricing oracle: an FPTAS for the knapsack problem with a cardinality cap,
and the sweep that scans every (window, cost-level) pair for a violated
column of the master program.

The FPTAS scales item volumes, then runs a dynamic program over
(scaled volume, selected count) whose cells store the exact minimum total
size.  Sizes are integers over the scheme's one denominator, Instance.scale;
a window's bound, total < 1 - w/(1+eps), is the integer limit
scale - 1 - floor(scale * w/(1+eps)).  The table is bounded by the limit: no
type gets more copies, and no multiset more items, than fit.  The limit
depends on the window's power t only, so the sweep builds one table per t
for the largest cardinality its pairs ask and reads every smaller
cardinality from the same table.  The sweep is one numpy grid of sorted
windows against levels 1..p_max: each pair's volume is gathered from its
power's answers, and its dual value, certified value and ratio are
computed elementwise in the order of the scalar loop, so they are the same
floats; only the pairs that violate become ``PricedColumn``s.

When every type that fits carries one positive volume, as under the seed
vertex's duals (alpha = f(1) on every size row), the oracle answers in
closed form, with no table: the most copies that fit, the smallest first.
That is the table's own answer.  Every copy scales to the same q >= 1, so
the table's best cell is the largest count that fits, and its traceback
takes the earliest of equally sized copies.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvariantError
from .structures import (
    Configuration,
    GeneralizedConfiguration,
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


KccAnswer = tuple[tuple[int, ...], float]  # (counts per item type, total volume)


def kcc_fptas(
    inst: KccInstance, eps: float, cardinalities: Iterable[int] | None = None
) -> KccAnswer | dict[int, KccAnswer]:
    """Approximate max-volume multiset; volume >= (1 - eps) * optimum.

    Returns (counts per item type, total volume).  With ``cardinalities``
    (caps of at most ``inst.cardinality``), returns that pair for every cap
    c, keyed by c, read from the one table of ``inst.cardinality``: the best
    cell among its rows of at most c copies.  The table's scaling step mu is
    the one of the largest cap, no coarser than c's own, so each answer
    keeps the (1 - eps) guarantee; the largest cap's answer is the one a
    call without ``cardinalities`` returns.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    caps = (inst.cardinality,) if cardinalities is None else tuple(cardinalities)
    if any(c > inst.cardinality for c in caps):
        raise ValueError("cardinalities must not exceed the instance's")
    answers = _kcc_table(inst, eps, caps)
    return answers[inst.cardinality] if cardinalities is None else answers


def _kcc_table(inst: KccInstance, eps: float, caps: tuple[int, ...]) -> dict[int, KccAnswer]:
    """The oracle's table for ``inst.cardinality``, read once per distinct
    effective cap min(cap, c_max); its answers in closed form when every
    type that fits carries one positive volume."""
    ntypes = len(inst.items)
    empty = ((0,) * ntypes, 0.0)
    nothing = dict.fromkeys(caps, empty)
    if inst.cardinality <= 0 or ntypes == 0:
        return nothing
    for it in inst.items:
        if it.size <= 0:
            raise ValueError("item sizes must be positive")
        if it.volume < 0:
            raise ValueError("item volumes must be non-negative")
        if it.multiplicity < 1:
            raise ValueError("item multiplicities must be >= 1")

    limit = inst.limit
    fits = [ti for ti, it in enumerate(inst.items) if it.size <= limit]
    volumes = {inst.items[ti].volume for ti in fits}
    if len(volumes) == 1 and max(volumes) > 0.0:
        return _smallest_first(inst, fits, caps)
    # expand copies, dropping anything that cannot appear in any solution: a
    # type gets at most as many copies as fit in the limit.  The scaling
    # step mu stays the one of the uncapped expansion (min(multiplicity,
    # cardinality) copies per type), which keeps every scaled volume as is
    copies: list[int] = []  # type index per copy
    uncapped = 0
    for ti in fits:
        it = inst.items[ti]
        uncapped += min(it.multiplicity, inst.cardinality)
        copies.extend([ti] * min(it.multiplicity, inst.cardinality, limit // it.size))
    if not copies:
        return nothing
    k_eff = min(inst.cardinality, uncapped)
    p_max = max(inst.items[ti].volume for ti in copies)
    if p_max <= 0.0:
        return nothing
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
        np.less(cand, target, out=took[j, 1:, q:])
        np.minimum(target, cand, out=target)
    feas = g <= limit
    # a cap reads rows 0..min(cap, c_max), so caps at or above c_max share
    # one answer
    rows_of = {cap: max(min(cap, c_max) + 1, 0) for cap in caps}
    by_rows: dict[int, KccAnswer] = {}
    for n_rows in set(rows_of.values()):
        # the best cell among those rows; the last improver of a cell is
        # the latest copy that took it, whatever its row
        rows = feas[:n_rows]
        if not rows.any():
            by_rows[n_rows] = empty
            continue
        qs = np.nonzero(rows.any(axis=0))[0]
        best_q = int(qs[-1])
        best_c = int(np.nonzero(rows[:, best_q])[0][0])
        counts = [0] * ntypes
        c, q = best_c, best_q
        for j in range(len(copies) - 1, -1, -1):
            if c > 0 and took[j, c, q]:
                counts[copies[j]] += 1
                c -= 1
                q -= q_of[j]
        volume = sum(counts[ti] * inst.items[ti].volume for ti in range(ntypes))
        by_rows[n_rows] = (tuple(counts), volume)
    return {cap: by_rows[n_rows] for cap, n_rows in rows_of.items()}


def _smallest_first(
    inst: KccInstance, fits: list[int], caps: tuple[int, ...]
) -> dict[int, KccAnswer]:
    """The table's answers when every type that fits carries one volume
    v > 0, without the table.  mu = eps * v / k_eff <= v, so each copy
    scales to the same q = int(v / mu) >= 1 and row c reaches the one cell
    (c, c * q): the best cell is the most copies that fit, the smallest
    first.  Among copies of one size the traceback takes the earliest, so
    the copies are taken in stable order of size."""
    room, left = inst.limit, max(caps, default=0)
    taken: list[tuple[int, int]] = []  # (type index, copies) in that order
    for ti in sorted(fits, key=lambda ti: inst.items[ti].size):
        it = inst.items[ti]
        k = min(it.multiplicity, room // it.size, left)
        if k <= 0:
            break
        taken.append((ti, k))
        room -= k * it.size
        left -= k
    # a cap c gets the first min(c, copies taken) of them; the volume sums
    # over the taken types in type order, as the table's does over every
    # type, whose other terms are +0.0
    ntypes = len(inst.items)
    most = sum(k for _, k in taken)
    in_order = sorted(ti for ti, _ in taken)
    n_of = {cap: max(min(cap, most), 0) for cap in caps}
    by_count: dict[int, KccAnswer] = {}
    for n in set(n_of.values()):
        counts = [0] * ntypes
        left = n
        for ti, k in taken:
            counts[ti] = min(k, left)
            left -= counts[ti]
        volume = sum((counts[ti] * inst.items[ti].volume for ti in in_order), 0.0)
        by_count[n] = (tuple(counts), volume)
    return {cap: by_count[n] for cap, n in n_of.items()}


@dataclass(frozen=True)
class PricedColumn:
    column: GeneralizedConfiguration
    ratio: float  # violation ratio of the found configuration


@dataclass(frozen=True)
class PricingOutcome:
    violations: tuple[PricedColumn, ...]
    max_ratio: float
    max_certified_ratio: float


def price_all(duals: np.ndarray, model: LpModel, kcc_eps: float) -> PricingOutcome:
    """Scan every (window, cost level) pair for violated master columns
    under the master's row duals ``duals``, in the row order of
    ``model.arrays()`` (``LpSolution.duals``).

    For each pair, the knapsack FPTAS maximizes the dual volume of a
    configuration under the pair's cardinality cap and size limit; a
    column is reported when its dual value strictly exceeds the cost of its
    level.  The certified ratio inflates the found volume by 1/(1 - kcc_eps)
    so that a max below 1 + eps certifies near-feasibility of the scaled
    duals even against configurations the FPTAS missed.
    """
    stair = model.staircase
    # the rows: alpha per size, beta per small type, then (gamma, delta) per
    # window with rows; a window without rows has no duals, which reads as 0
    items = tuple(map(KccItemType, model.sizes, duals.tolist(), model.demands))
    rows = np.append(duals[len(model.sizes) + len(model.smalls) :], (0.0, 0.0)).reshape(-1, 2)
    slack = 1.0 / (1.0 - kcc_eps)
    windows = sorted(model.windows)
    at_row = [model.row_index.get(w, -1) for w in windows]  # -1: the appended zeros
    grid = np.fromiter(chain.from_iterable(windows), np.float64).reshape(-1, 4)  # (t, a, w, kappa)
    t, a = grid[:, 0].astype(np.intp), grid[:, 1].astype(np.intp)
    gamma_w, delta_k = (grid[:, 2:] * rows[at_row]).T
    # the (window, level) grid, windows sorted and levels p = 1..p_max: the
    # pair's cardinality is ks[p] on a = 0 and ks[p] - ks[a - 1] - 1
    # otherwise, the room above the count bound below; a cardinality at or
    # above the total multiplicity caps nothing, so such pairs share one
    # answer, and a pair with p < a is no column
    ks = np.array(stair.ks, dtype=np.int64)
    levels = np.arange(1, model.p_max + 1)
    total_items = sum(model.demands)
    card = np.minimum(ks[levels] - np.where(a > 0, ks[a - 1] + 1, 0)[:, None], total_items)
    on_w, on_p = np.nonzero((levels >= a[:, None]) & (card >= 0))  # window-major
    # the window's size index t fixes the oracle's limit, so each t gets one
    # oracle table answering every cardinality its pairs ask: the distinct
    # (t, card) of the cells, ascending, t-major
    stride = total_items + 1
    asked, answer_of = np.unique(t[on_w] * stride + card[on_w, on_p], return_inverse=True)
    caps_of: dict[int, list[int]] = {}
    for key in asked.tolist():
        caps_of.setdefault(key // stride, []).append(key % stride)
    floors = scaled_powers(model.eps.denominator, model.t_max, model.scale)
    solved: dict[int, dict[int, KccAnswer]] = {}
    answered: list[float] = []
    for tv, caps in caps_of.items():
        if tv >= model.t_max:  # degenerate: too small for any small item
            limit = model.scale
        else:  # total < 1 - w/(1+eps), and w/(1+eps) is the power tv + 1
            limit = model.scale - 1 - floors[tv + 1]
        solved[tv] = kcc_fptas(KccInstance(items, caps[-1], limit), kcc_eps, cardinalities=caps)
        answered += [solved[tv][c][1] for c in caps]
    volume = np.array(answered, dtype=np.float64)[answer_of]

    gamma_w, delta_k = gamma_w[on_w], delta_k[on_w]
    f_kp = np.array(stair.f_at, dtype=np.float64)[levels[on_p]]
    ratio = (volume + gamma_w + delta_k) / f_kp
    certified = (volume * slack + gamma_w + delta_k) / f_kp
    max_ratio = float(ratio.max(initial=0.0))
    max_certified = float(certified.max(initial=0.0))
    found: list[PricedColumn] = []
    for cell in np.flatnonzero(ratio > 1.0 + 1e-9).tolist():
        window, p = windows[on_w[cell]], int(levels[on_p[cell]])
        counts = solved[window.t][int(card[on_w[cell], on_p[cell]])][0]
        total = sum(c * v for c, v in zip(counts, model.sizes))
        config = Configuration(counts, total, sum(counts))
        mw = main_window(config, p, model.eps, model.t_max, stair, model.scale)
        if not mw.dominates(window):
            raise InvariantError("priced column must be valid")
        found.append(PricedColumn(GeneralizedConfiguration(config, p, window), float(ratio[cell])))
    return PricingOutcome(tuple(found), max_ratio, max_certified)
