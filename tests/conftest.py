"""Shared generators and brute-force oracles for the test suite."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from concavebp import CostFunction, FractionalPacking, Instance, make_cost_function
from concavebp.core import Violation
from concavebp.errors import InvariantError
from concavebp.lp import FRACTIONAL_TOL


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


def reference_verify_integral(inst: Instance, p) -> list[Violation]:
    """The integral verifier's loop as it was before it read the missing
    items off a set difference: one membership test per declared item."""
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


def reference_split_types(y, model) -> dict:
    """The item-by-item split that ``lp.split_types`` replaced: one value per
    (item, window), the part of [q, q + 1) that falls in the window's
    stretch of the type's cumulative mass, ends snapped as there."""
    out = {}
    lo = 0.0
    last = None
    for (s, w), val in sorted(y.items()):
        if val <= 0:
            continue
        if s != last:
            last, lo = s, 0.0
        items = model.smalls[s].items
        hi = lo + val
        if abs(hi - round(hi)) <= FRACTIONAL_TOL:
            hi = float(round(hi))
        for q in range(math.floor(lo), min(math.ceil(hi), len(items))):
            out[(items[q], w)] = min(q + 1, hi) - max(q, lo)
        lo = hi
    return out


def reference_fractional_counts(x, item_assignment) -> tuple[int, int]:
    """``LpSolution.fractional_counts`` over a per-item assignment, as it was
    before the assignment went by stretches."""
    fx = sum(
        1 for val in x.values() if val > FRACTIONAL_TOL and abs(val - round(val)) > FRACTIONAL_TOL
    )
    by_item: dict[int, list[float]] = {}
    for (i, _w), val in item_assignment.items():
        if val > FRACTIONAL_TOL:
            by_item.setdefault(i, []).append(val)
    fy = sum(
        1
        for vals in by_item.values()
        if not (len(vals) == 1 and abs(vals[0] - 1.0) <= FRACTIONAL_TOL)
    )
    return fx, fy


def reference_round_solution(x, item_assignment, model, grouping, inst):
    """The item-by-item rounding that ``afptas.round_solution`` replaced:
    one bin record per rounded-up copy, one window lookup per bin, one
    (item, window) value per kept item.  Returns (bins, config_records,
    dedicated, removed bins, special bins, excess bins)."""
    k = model.eps.denominator
    one_plus = 1.0 + 1.0 / k
    f_vals = model.f.values
    top = len(f_vals) - 1
    sizes, scale = inst.int_sizes, inst.scale

    bin_gcs = []
    for gc in sorted(x):
        if x[gc] > 1e-7:
            bin_gcs += [gc] * math.ceil(x[gc] - 1e-7)
    # large items: a bin counting c of type j takes the type's next c items
    bounds = list(accumulate(grouping.demands, initial=len(grouping.l1)))
    heads, ends = bounds[:-1], bounds[1:]
    larges = []
    for gc in bin_gcs:
        placed = []
        for j, c in enumerate(gc.config.counts):
            if c:
                placed.extend(range(heads[j], min(heads[j] + c, ends[j])))
                heads[j] += c
        larges.append(placed)
    leftover = {v: list(range(h, e)) for v, h, e in zip(grouping.sizes, heads, ends) if h < e}
    if leftover:
        raise InvariantError(f"unplaced large items: {leftover}")
    smalls = [[] for _ in bin_gcs]

    unit = {i: w for (i, w), val in item_assignment.items() if abs(val - 1.0) <= 1e-6}
    extra_bins = []
    assigned = {}
    for st in model.smalls:
        for item in st.items:
            if item in unit:
                assigned.setdefault(unit[item], []).append(item)
            else:
                extra_bins.append([item])
    dedicated = len(extra_bins)

    by_window = {}
    for b, gc in enumerate(bin_gcs):
        by_window.setdefault(gc.window, []).append(b)

    removed, specials, excess_subsets = [], [], []
    for w in sorted(assigned):
        items = assigned[w]
        if w.t >= model.t_max:
            raise InvariantError("small items assigned to a degenerate window")
        target = by_window.get(w, [])
        if not target:
            raise InvariantError(f"window {w} has assigned items but no bins")
        if len(items) > w.kappa * len(target):
            raise InvariantError("window count row violated after rounding")
        for pos, item in enumerate(sorted(items, key=lambda i: (-sizes[i], i))):
            smalls[target[pos % len(target)]].append(item)
        for b in target:
            if len(smalls[b]) > w.kappa:
                raise InvariantError(f"window {w} dealt more than kappa items to a bin")
            if not smalls[b]:
                continue
            removed.append(smalls[b].pop(0))
            room = scale - sum(sizes[i] for i in larges[b])
            keep, special, excess, load = [], None, [], 0
            for i in sorted(smalls[b], key=lambda i: (sizes[i], i)):
                if special is None and load + sizes[i] <= room:
                    keep.append(i)
                    load += sizes[i]
                elif special is None:
                    special = i
                else:
                    excess.append(i)
            smalls[b] = keep
            if special is not None:
                specials.append(special)
            if excess:
                if not len(excess) * k <= w.kappa:
                    raise InvariantError("excess items exceed eps * kappa")
                excess_subsets.append((w.kappa, excess))

    for chunk_src in (removed, specials):
        for i in range(0, len(chunk_src), k):
            extra_bins.append(chunk_src[i : i + k])
    excess_subsets.sort(key=lambda t: -t[0])
    for i in range(0, len(excess_subsets), k):
        extra_bins.append([item for _, items in excess_subsets[i : i + k] for item in items])

    records, out_bins = [], []
    for gc, placed, kept in zip(bin_gcs, larges, smalls):
        content = placed + kept
        if not content:
            continue
        if sum(sizes[i] for i in content) > scale:
            raise InvariantError("configuration bin exceeds capacity")
        k_p = model.staircase.ks[gc.p]
        f_kp = f_vals[min(k_p, top)]
        cost = f_vals[min(len(content), top)]
        if not cost <= one_plus * f_kp + 1e-9:
            raise InvariantError("bin real cost exceeds (1+eps) * level cost")
        records.append({"k_p": k_p, "f_k_p": f_kp, "items": len(content), "cost": cost})
        out_bins.append(content)
    for eb in extra_bins:
        if sum(sizes[i] for i in eb) > scale:
            raise InvariantError("repair bin exceeds capacity")
    out_bins.extend(eb for eb in extra_bins if eb)
    return (
        out_bins,
        records,
        dedicated,
        (len(removed) + k - 1) // k,
        (len(specials) + k - 1) // k,
        (len(excess_subsets) + k - 1) // k,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
